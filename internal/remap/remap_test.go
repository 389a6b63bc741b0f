package remap_test

import (
	"errors"
	"strings"
	"testing"

	"topomap"
	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/remap"
	"topomap/internal/sim"
)

// mapEngine runs the real protocol and returns the reconstruction.
func mapEngine(t *testing.T, g *graph.Graph, root int, o topomap.Options) *graph.Graph {
	t.Helper()
	o.Root = root
	res, err := topomap.Map(g, o)
	if err != nil {
		t.Fatalf("engine map: %v", err)
	}
	return res.Topology
}

// mapRunOne maps g on a bare engine feeding the transcript mapper, driven
// by a loop of sim.Engine.RunOne (per-tick stepping, no burst loop).
func mapRunOne(t *testing.T, g *graph.Graph, root int) *graph.Graph {
	t.Helper()
	m := mapper.New(g.Delta())
	eng := sim.New(g, sim.Options{Root: root, Transcript: m.Process}, gtd.NewFactory(gtd.DefaultConfig()))
	for {
		more, err := eng.RunOne()
		if err != nil {
			t.Fatalf("engine map: %v", err)
		}
		if !more {
			break
		}
	}
	r, err := m.Finish()
	if err != nil {
		t.Fatalf("engine map: %v", err)
	}
	return r
}

// familyCorpus is the shared truth-graph set: every family class, regular
// and irregular, with off-zero roots mixed in.
func familyCorpus() []struct {
	name string
	g    *graph.Graph
	root int
} {
	return []struct {
		name string
		g    *graph.Graph
		root int
	}{
		{"ring12", graph.Ring(12), 0},
		{"ring12r5", graph.Ring(12), 5},
		{"biring9", graph.BiRing(9), 2},
		{"torus12", graph.Torus(3, 4), 0},
		{"kautz", graph.Kautz(2, 2), 1},
		{"hyper3", graph.Hypercube(3), 5},
		{"er24", graph.ErdosRenyi(24, 4, 0.15, 7), 0},
		{"ba24", graph.BarabasiAlbert(24, 2, 4, 9), 3},
		{"chordal16", graph.ChordalRing(16, 3), 0},
	}
}

// corpusDelta builds a deterministic mixed delta for a reconstruction:
// delete-and-rewire a mid-preorder tree edge (risky) plus, when free ports
// exist, a label-stable chord insert (target before source) and a risky
// chord insert. Always returns at least the rewire.
func corpusDelta(r *graph.Graph, st *remap.State) *graph.Delta {
	d := new(graph.Delta)
	n := r.N()
	// Tree-edge rewire: node n/2's parent edge, deleted and re-inserted.
	v := n / 2
	if v == 0 {
		v = 1
	}
	pe, pp := remap.Parent(st, v)
	e, _ := r.OutEndpoint(pe, pp)
	d.Delete(pe, pp, e.Node, e.Port)
	d.Insert(pe, pp, e.Node, e.Port)
	// Chord inserts wherever two nodes have a free out/in port pair,
	// skipping ports already claimed by earlier ops in this batch.
	usedOut := map[[2]int]bool{}
	usedIn := map[[2]int]bool{}
	addChord := func(wantStable bool) {
		for from := n - 1; from > 0; from-- {
			op := r.FreeOutPort(from)
			if op == 0 || usedOut[[2]int{from, op}] {
				continue
			}
			for to := 0; to < n; to++ {
				if to == from {
					continue
				}
				if wantStable != (to < from) {
					continue
				}
				ip := r.FreeInPort(to)
				if ip == 0 || usedIn[[2]int{to, ip}] {
					continue
				}
				d.Insert(from, op, to, ip)
				usedOut[[2]int{from, op}] = true
				usedIn[[2]int{to, ip}] = true
				return
			}
		}
	}
	addChord(true)
	addChord(false)
	return d
}

// TestRemapMatchesEngine is the package's correctness anchor: for every
// corpus family, a patched reconstruction must be graph.Equal to — and share
// its CanonicalDigest with — the engine's from-scratch map of the mutated
// graph, under Run's burst loop (through topomap.Map) and under per-tick
// RunOne stepping.
func TestRemapMatchesEngine(t *testing.T) {
	for _, tc := range familyCorpus() {
		r0 := mapEngine(t, tc.g, tc.root, topomap.Options{})
		st, err := remap.Derive(r0)
		if err != nil {
			t.Fatalf("%s: derive: %v", tc.name, err)
		}
		d := corpusDelta(r0, st)
		res, err := remap.Patch(r0, st, d, remap.Options{MaxDirtyFrac: 1})
		if err != nil {
			t.Fatalf("%s: patch %s: %v", tc.name, d, err)
		}
		// The delta in reconstruction space defines the mutated truth graph.
		mutated, err := d.ApplyClone(r0)
		if err != nil {
			t.Fatalf("%s: apply: %v", tc.name, err)
		}
		engines := []struct {
			name string
			want *graph.Graph
		}{
			{"Map", mapEngine(t, mutated, 0, topomap.Options{})},
			{"RunOne", mapRunOne(t, mutated, 0)},
		}
		for _, e := range engines {
			if !res.Graph.Equal(e.want) {
				t.Fatalf("%s: patched reconstruction != %s full map (delta %s)", tc.name, e.name, d)
			}
			if res.Graph.CanonicalDigest(0) != e.want.CanonicalDigest(0) {
				t.Fatalf("%s: %s: digest mismatch", tc.name, e.name)
			}
		}
		// Patched state must keep working: patch again on top.
		d2 := corpusDelta(res.Graph, res.State)
		res2, err := remap.Patch(res.Graph, res.State, d2, remap.Options{MaxDirtyFrac: 1})
		if err != nil {
			t.Fatalf("%s: second patch: %v", tc.name, err)
		}
		mutated2, err := d2.ApplyClone(res.Graph)
		if err != nil {
			t.Fatalf("%s: second apply: %v", tc.name, err)
		}
		if want := mapEngine(t, mutated2, 0, topomap.Options{}); !res2.Graph.Equal(want) {
			t.Fatalf("%s: chained patch != engine full map", tc.name)
		}
	}
}

func TestRemapLabelStableFastPath(t *testing.T) {
	r0 := mapEngine(t, graph.Ring(64), 0, topomap.Options{})
	st, err := remap.Derive(r0)
	if err != nil {
		t.Fatal(err)
	}
	// Ring reconstruction is the identity ring: chord 40→10 targets an
	// earlier preorder position, so labels cannot move.
	d := new(graph.Delta).Insert(40, 2, 10, 2)
	res, err := remap.Patch(r0, st, d, remap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed || res.Dirty != 0 {
		t.Fatalf("stable chord replayed: %+v", res)
	}
	if res.State != st {
		t.Fatalf("stable patch must share the state")
	}
	want := mapEngine(t, res.Graph, 0, topomap.Options{})
	if !res.Graph.Equal(want) || res.Graph.CanonicalDigest(0) != want.CanonicalDigest(0) {
		t.Fatalf("stable patch != engine map of mutated graph")
	}
}

func TestRemapSuffixReplayBounds(t *testing.T) {
	r0 := mapEngine(t, graph.Ring(64), 0, topomap.Options{})
	st, err := remap.Derive(r0)
	if err != nil {
		t.Fatal(err)
	}
	// Chord 50→60 is risky (target after source) and dirties only the
	// preorder suffix past 50.
	d := new(graph.Delta).Insert(50, 2, 60, 2)
	res, err := remap.Patch(r0, st, d, remap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed || res.Dirty != 64-51 {
		t.Fatalf("expected a 13-node suffix replay, got %+v", res)
	}
	want := mapEngine(t, d.MustApplyClone(r0), 0, topomap.Options{})
	if !res.Graph.Equal(want) {
		t.Fatalf("suffix replay != engine map")
	}
}

func TestRemapFallbackThreshold(t *testing.T) {
	r0 := mapEngine(t, graph.Ring(64), 0, topomap.Options{})
	st, err := remap.Derive(r0)
	if err != nil {
		t.Fatal(err)
	}
	// Rewiring the root's tree edge dirties the whole suffix.
	d := new(graph.Delta).Delete(0, 1, 1, 1).Insert(0, 1, 1, 1)
	if _, err := remap.Patch(r0, st, d, remap.Options{}); !errors.Is(err, remap.ErrTooDirty) {
		t.Fatalf("want ErrTooDirty under the default threshold, got %v", err)
	}
	// Disabling the threshold patches it anyway, bit-equal to the engine.
	res, err := remap.Patch(r0, st, d, remap.Options{MaxDirtyFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(r0) {
		t.Fatalf("identity rewire changed the reconstruction")
	}
}

func TestRemapNodeSplice(t *testing.T) {
	r0 := mapEngine(t, graph.Ring(16), 0, topomap.Options{})
	st, err := remap.Derive(r0)
	if err != nil {
		t.Fatal(err)
	}
	d := new(graph.Delta).AddNode().
		Delete(7, 1, 8, 1).
		Insert(7, 1, 16, 1).
		Insert(16, 1, 8, 1)
	res, err := remap.Patch(r0, st, d, remap.Options{MaxDirtyFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := mapEngine(t, d.MustApplyClone(r0), 0, topomap.Options{})
	if !res.Graph.Equal(want) || res.Graph.CanonicalDigest(0) != want.CanonicalDigest(0) {
		t.Fatalf("spliced patch != engine map")
	}
	if !res.Graph.IsomorphicFrom(0, graph.Ring(17), 0) {
		t.Fatalf("spliced ring-16 not isomorphic to ring-17")
	}

	// Remove it again: forces the full-rebuild path plus full validation.
	// In the patched label space the spliced node was relabeled to 8 (it is
	// discovered via 7:1), pushing the old 8..15 up to 9..16.
	u := new(graph.Delta).
		Delete(7, 1, 8, 1).
		Delete(8, 1, 9, 1).
		Insert(7, 1, 9, 1).
		RemoveNode(8)
	res2, err := remap.Patch(res.Graph, res.State, u, remap.Options{MaxDirtyFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Graph.Equal(r0) {
		t.Fatalf("unspliced patch != original reconstruction")
	}
	if _, err := remap.Patch(r0, st, new(graph.Delta).RemoveNode(0), remap.Options{MaxDirtyFrac: 1}); err == nil {
		t.Fatalf("removing the root must fail")
	}
}

// TestRemapRejectsDisconnectedAddition: a batch whose new nodes are wired
// only among themselves passes Apply's per-node degree checks but leaves a
// disconnected island. classify must treat node additions as risky so the
// replay's full-reachability check rejects the batch — the label-stable path
// once returned the invalid reconstruction with a state sized for the old
// node count.
func TestRemapRejectsDisconnectedAddition(t *testing.T) {
	r0 := mapEngine(t, graph.Ring(4), 0, topomap.Options{})
	st, err := remap.Derive(r0)
	if err != nil {
		t.Fatal(err)
	}
	d := new(graph.Delta).AddNode().AddNode().
		Insert(4, 1, 5, 1).
		Insert(5, 1, 4, 1)
	if _, err := d.ApplyClone(r0); err != nil {
		t.Fatalf("setup: the island delta must pass Apply's degree checks: %v", err)
	}
	res, err := remap.Patch(r0, st, d, remap.Options{MaxDirtyFrac: 1})
	if err == nil {
		t.Fatalf("disconnected addition accepted: %d-node graph from a 4-node base", res.Graph.N())
	}
	if !strings.Contains(err.Error(), "reaches only") {
		t.Fatalf("want a reachability error, got %v", err)
	}
}

func TestRemapStrongConnectivityGuard(t *testing.T) {
	// Two 2-cycles bridged in both directions; dropping one bridge keeps
	// every degree legal but severs the strong component.
	g := graph.New(4, 3)
	g.MustConnect(0, 1, 1, 1)
	g.MustConnect(1, 1, 0, 1)
	g.MustConnect(2, 1, 3, 1)
	g.MustConnect(3, 1, 2, 1)
	g.MustConnect(1, 2, 2, 2)
	g.MustConnect(3, 2, 0, 2)
	r0 := mapEngine(t, g, 0, topomap.Options{})
	st, err := remap.Derive(r0)
	if err != nil {
		t.Fatal(err)
	}
	// In reconstruction space the same bridge exists; find it: the edge
	// into node 0 that is not part of the first 2-cycle.
	var bridge graph.Edge
	for _, e := range r0.Edges() {
		if e.To == 0 && e.From != 1 {
			bridge = e
		}
	}
	d := new(graph.Delta).Delete(bridge.From, bridge.OutPort, bridge.To, bridge.InPort)
	if _, err := remap.Patch(r0, st, d, remap.Options{MaxDirtyFrac: 1}); err == nil ||
		!strings.Contains(err.Error(), "strong connectivity") {
		t.Fatalf("want a strong-connectivity error, got %v", err)
	}
}

func TestRebuildMatchesEngineOffRoot(t *testing.T) {
	for _, tc := range familyCorpus() {
		want := mapEngine(t, tc.g, tc.root, topomap.Options{})
		got, _, err := remap.Rebuild(tc.g, tc.root)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", tc.name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: structural rebuild != engine map", tc.name)
		}
	}
}

// TestRebuildAliasesPreorderInput pins Rebuild's documented aliasing: a
// graph already in preorder from root 0 comes back as the same *Graph, and
// any other input comes back as a fresh graph.
func TestRebuildAliasesPreorderInput(t *testing.T) {
	canon, _, err := remap.Rebuild(graph.Torus(4, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := remap.Rebuild(canon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again != canon {
		t.Fatal("Rebuild of a preorder graph should return its input itself")
	}
	if other, _, _ := remap.Rebuild(canon, 1); other == canon {
		t.Fatal("Rebuild from another root must not return its input")
	}
}

func TestDeriveRejectsNonCanonical(t *testing.T) {
	g := graph.Ring(8).Relabel(graph.RandomPermutation(8, 3))
	if _, err := remap.Derive(g); err == nil {
		// A random relabel of a ring is almost surely not in preorder form;
		// the one rotation that is would make this vacuous, so pin it.
		if r, _, _ := remap.Rebuild(g, 0); !r.Equal(g) {
			t.Fatalf("derive accepted a non-canonical graph")
		}
	}
}
