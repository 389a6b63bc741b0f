package main

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"net/url"

	"topomap/internal/graph"
)

// A serve-write round walks every chain through writeSteps, interleaved
// across the chains step by step: two splices (so that there is a node to
// remove), two free draws, and two removals that undo splices. Steps
// alternate text bodies with JSON results and tmd1 bodies with tmr1 results.
var writeSteps = []stepKind{stepSplice, stepSplice, stepEdge, stepEdge, stepRemove, stepRemove}

type stepKind int

const (
	stepSplice stepKind = iota // a RandomDeltas draw that splices a node
	stepEdge                   // any RandomDeltas draw
	stepRemove                 // remove a spliced node, restoring its edge
)

// defaultMaxDirty is the remap layer's default threshold (a PATCH without
// ?maxdirty): a delta whose replayed suffix exceeds this share of the nodes
// is served by a full engine run instead.
const defaultMaxDirty = 0.25

// chain is one network's PATCH chain on the daemon: the expected current
// reconstruction, its content address there, and the spliced nodes still
// present (labels in the current reconstruction).
type chain struct {
	name    string
	cur     *recon
	base    string // hex digest the next PATCH names
	spliced []int
	seed    int64
	draws   int
}

// step is one prepared PATCH: the delta, its expected result, the spliced
// nodes after it, whether it removes a node, and its codec pair.
type step struct {
	d       *graph.Delta
	next    *recon
	spliced []int
	removal bool
	binary  bool
}

// dirty mirrors the remap layer's classification of a delta against the
// DFS tree of cur: the share of preorder labels the patch replays. Kept
// here so that the benchmark draws only deltas within the default
// threshold; a PATCH answered "full" is a failed check, not a slow cell.
func dirty(cur *recon, d *graph.Delta) float64 {
	n0 := cur.g.N()
	cut, n1, risky := n0, n0, false
	at := func(t int) {
		risky = true
		cut = min(cut, t)
	}
	for _, op := range d.Ops {
		e := op.Edge
		switch op.Kind {
		case graph.DeltaInsert:
			if e.From < n0 && !(e.To < e.From && e.To < n0) {
				at(e.From + 1)
			}
		case graph.DeltaDelete:
			if e.To < n0 && int(cur.parent[e.To]) == e.From && int(cur.pport[e.To]) == e.OutPort {
				at(e.To)
			}
		case graph.DeltaAddNode:
			n1++
			at(n0)
		case graph.DeltaRemoveNode:
			n1--
			at(0)
		}
	}
	if !risky {
		return 0
	}
	return float64(n1-cut) / float64(n1)
}

// apply computes a delta's expected result with the oracle and carries the
// spliced-node labels across it.
func (c *chain) apply(d *graph.Delta, removed int) (*recon, []int, error) {
	raw, err := d.ApplyClone(c.cur.g)
	if err != nil {
		return nil, nil, err
	}
	next, err := preorder(raw, 0)
	if err != nil {
		return nil, nil, err
	}
	var spliced []int
	for _, v := range c.spliced {
		switch {
		case v == removed:
			continue
		case removed >= 0 && v > removed:
			v-- // removal compacts the ids above it
		}
		spliced = append(spliced, int(next.label[v]))
	}
	if n0 := c.cur.g.N(); raw.N() > n0 {
		spliced = append(spliced, int(next.label[n0]))
	}
	return next, spliced, nil
}

// draw prepares the chain's next edge-op PATCH: graph.RandomDeltas on the
// current reconstruction, redrawn with the next seed until the delta stays
// within the default threshold (and, for stepSplice, adds a node).
func (c *chain) draw(kind stepKind) (*step, error) {
	for {
		c.draws++
		ds, err := graph.RandomDeltas(c.cur.g, 1, subSeed(c.seed, uint64(c.draws)))
		if err != nil {
			return nil, err
		}
		d := ds[0]
		if (kind == stepSplice && !d.NodeOps()) || dirty(c.cur, d) > defaultMaxDirty {
			continue
		}
		next, spliced, err := c.apply(d, -1)
		if err != nil {
			return nil, err
		}
		return &step{d: d, next: next, spliced: spliced}, nil
	}
}

// removal prepares a PATCH that undoes a splice: the most recent spliced
// node still wired to exactly one predecessor a and one successor b loses
// both edges, a is wired to b on the freed ports, and the node is removed.
// It returns nil when no spliced node qualifies.
func (c *chain) removal() (*step, error) {
	g := c.cur.g
	for i := len(c.spliced) - 1; i >= 0; i-- {
		x := c.spliced[i]
		if g.InDegree(x) != 1 || g.OutDegree(x) != 1 {
			continue
		}
		var in, out graph.Edge
		for p := 1; p <= g.Delta(); p++ {
			if e, ok := g.InEndpoint(x, p); ok {
				in = graph.Edge{From: e.Node, OutPort: e.Port, To: x, InPort: p}
			}
			if e, ok := g.OutEndpoint(x, p); ok {
				out = graph.Edge{From: x, OutPort: p, To: e.Node, InPort: e.Port}
			}
		}
		if in.From == out.To {
			continue // restoring the edge would make a self-loop
		}
		d := new(graph.Delta).
			Delete(in.From, in.OutPort, x, in.InPort).
			Delete(x, out.OutPort, out.To, out.InPort).
			Insert(in.From, in.OutPort, out.To, out.InPort).
			RemoveNode(x)
		next, spliced, err := c.apply(d, x)
		if err != nil {
			return nil, err
		}
		return &step{d: d, next: next, spliced: spliced, removal: true}, nil
	}
	return nil, nil
}

// prepare builds the chain's step of the given kind; nil means no spliced
// node qualifies for a removal this round (a chord landed on each), and
// the round goes on without it.
func (c *chain) prepare(kind stepKind, binary bool) (*step, error) {
	var s *step
	var err error
	if kind == stepRemove {
		s, err = c.removal()
	} else {
		s, err = c.draw(kind)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: prepare step: %w", c.name, err)
	}
	if s != nil {
		s.binary = binary
	}
	return s, nil
}

// advance moves the chain past a step the daemon answered with digest.
func (c *chain) advance(s *step, digest string) {
	c.cur, c.spliced, c.base = s.next, s.spliced, digest
}

// patchRequest is the PATCH of one step: text with the base in the query,
// or a tmd1 frame carrying its base. A node removal renumbers every label,
// so the remap layer replays the whole preorder: its PATCH lifts the dirty
// threshold.
func patchRequest(s *step, base string) (request, error) {
	q := url.Values{}
	if s.removal {
		q.Set("maxdirty", "1")
	}
	if !s.binary {
		q.Set("base", base)
		return request{method: http.MethodPatch, path: "/map?" + q.Encode(), body: []byte(s.d.MarshalText())}, nil
	}
	dig, err := parseDigest(base)
	if err != nil {
		return request{}, err
	}
	body, err := graph.MarshalDeltaBinary(dig, s.d)
	if err != nil {
		return request{}, err
	}
	return request{method: http.MethodPatch, path: "/map?" + q.Encode(), body: body,
		ctype: contentTypeBinary, accept: contentTypeBinary}, nil
}

func parseDigest(h string) (graph.Digest, error) {
	var dig graph.Digest
	b, err := hex.DecodeString(h)
	if err != nil || len(b) != len(dig) {
		return dig, fmt.Errorf("bad digest %q", h)
	}
	copy(dig[:], b)
	return dig, nil
}

var incrementalHeader = map[string]string{"X-Topomap-Remap": "incremental"}

// newChains starts one chain per seeded network.
func newChains(seed int64, ss *serveSetup) []*chain {
	chains := make([]*chain, len(ss.nets))
	for i, nw := range ss.nets {
		chains[i] = &chain{name: nw.name, cur: nw.recon, base: ss.digests[i], seed: subSeed(seed, uint64(20+i))}
	}
	return chains
}

// writeCellNames lists serve-write's cells: network × delta kind × codec
// pair (text body with JSON result, tmd1 body with tmr1 result).
func writeCellNames(nets []*network) []string {
	var names []string
	for _, nw := range nets {
		for _, kind := range []string{"edge-ops", "node-removal"} {
			names = append(names, nw.name+"/"+kind+"/text-json", nw.name+"/"+kind+"/tmd1-tmr1")
		}
	}
	return names
}

func writeCell(net int, s *step) int {
	cell := 4 * net
	if s.removal {
		cell += 2
	}
	if s.binary {
		cell++
	}
	return cell
}

// runServeWrite walks a PATCH chain per network. Every PATCH is a delta
// drawn on the current reconstruction in its own label space; each must be
// served incrementally with the oracle's topology. Every PATCH is a
// repetition of its cell.
func runServeWrite(cfg config) (*outcome, error) {
	ss, setups, err := timeServeSetups(cfg, nil)
	if err != nil {
		return nil, err
	}
	chains := newChains(cfg.seed, ss)
	names := writeCellNames(ss.nets)
	o := &outcome{setups: setups, cells: newCells(names)}
	var chk checker
	err = loop(cfg.budget, func(int) error {
		for k, kind := range writeSteps {
			for i, c := range chains {
				s, err := c.prepare(kind, k%2 == 1)
				if err != nil {
					return err
				}
				if s == nil {
					continue
				}
				req, err := patchRequest(s, c.base)
				if err != nil {
					return err
				}
				rep, rtt, err := ss.d.do(req)
				o.attempted++
				if err != nil || rep.status != http.StatusOK {
					o.failed++
					continue
				}
				cell := writeCell(i, s)
				o.cells.add(cell, rtt)
				if err := checkResult(rep, s.binary, s.next.g, incrementalHeader); err != nil {
					chk.failf("serve-write %s: %v", names[cell], err)
				}
				c.advance(s, rep.header.Get("X-Topomap-Digest"))
			}
		}
		return nil
	})
	peak, serr := ss.d.stop()
	if err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	o.wrong, o.peakMiB = chk.wrong, peak
	return o, nil
}
