package graph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DeltaOpKind identifies one mutation of a Delta.
type DeltaOpKind uint8

const (
	// DeltaInsert wires a new edge (both named ports must be free).
	DeltaInsert DeltaOpKind = iota + 1
	// DeltaDelete unwires an existing edge (all four coordinates are
	// validated against the current wiring — a delete can never silently
	// remove a different edge than the one named).
	DeltaDelete
	// DeltaAddNode appends one node; its id is the node count at the moment
	// the op applies. The new node's edges arrive as DeltaInsert ops later
	// in the same batch.
	DeltaAddNode
	// DeltaRemoveNode drops one fully-unwired node (its edges must have been
	// deleted earlier in the batch); every higher node id shifts down by one.
	DeltaRemoveNode
)

func (k DeltaOpKind) String() string {
	switch k {
	case DeltaInsert:
		return "insert"
	case DeltaDelete:
		return "delete"
	case DeltaAddNode:
		return "add-node"
	case DeltaRemoveNode:
		return "remove-node"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// DeltaOp is one mutation: an edge for DeltaInsert/DeltaDelete, Edge.From as
// the node for DeltaRemoveNode, and nothing for DeltaAddNode.
type DeltaOp struct {
	Kind DeltaOpKind
	Edge Edge
}

// Delta is a batched, ordered mutation of a graph: edge inserts and deletes
// plus node additions and removals, applied sequentially. Ops later in the
// batch see the ids produced by earlier node ops (DeltaRemoveNode compacts
// ids). The degree bound δ never changes — ports are validated against the
// target graph's bound at application time.
//
// A Delta says nothing about which labelling its node ids live in; that is
// the caller's contract. The remap layer (DESIGN.md §2.9) uses reconstruction
// labels — node 0 is the root — which is also the namespace of the tmd1 wire
// frame; Rebase translates a delta between labellings.
type Delta struct {
	Ops []DeltaOp
}

// Insert appends an edge-insert op and returns d for chaining.
func (d *Delta) Insert(from, outPort, to, inPort int) *Delta {
	d.Ops = append(d.Ops, DeltaOp{Kind: DeltaInsert,
		Edge: Edge{From: from, OutPort: outPort, To: to, InPort: inPort}})
	return d
}

// Delete appends an edge-delete op and returns d for chaining.
func (d *Delta) Delete(from, outPort, to, inPort int) *Delta {
	d.Ops = append(d.Ops, DeltaOp{Kind: DeltaDelete,
		Edge: Edge{From: from, OutPort: outPort, To: to, InPort: inPort}})
	return d
}

// AddNode appends a node-addition op and returns d for chaining.
func (d *Delta) AddNode() *Delta {
	d.Ops = append(d.Ops, DeltaOp{Kind: DeltaAddNode})
	return d
}

// RemoveNode appends a node-removal op and returns d for chaining.
func (d *Delta) RemoveNode(v int) *Delta {
	d.Ops = append(d.Ops, DeltaOp{Kind: DeltaRemoveNode, Edge: Edge{From: v}})
	return d
}

// Len returns the number of ops.
func (d *Delta) Len() int {
	if d == nil {
		return 0
	}
	return len(d.Ops)
}

// NodeOps reports whether the delta contains any node addition or removal.
func (d *Delta) NodeOps() bool {
	for _, op := range d.Ops {
		if op.Kind == DeltaAddNode || op.Kind == DeltaRemoveNode {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of d.
func (d *Delta) Clone() *Delta {
	if d == nil {
		return nil
	}
	return &Delta{Ops: append([]DeltaOp(nil), d.Ops...)}
}

// Rebase returns a copy of d with every node id translated through perm
// (old id → new id). Ids introduced by the delta's own node ops — at or
// beyond len(perm) — are kept as-is: they name nodes that do not exist in
// the base labelling. Rebase is how a client moves a delta it built against
// its own graph into the reconstruction-label namespace of the tmd1 frame
// (see Isomorphism).
func (d *Delta) Rebase(perm []int) (*Delta, error) {
	out := &Delta{Ops: make([]DeltaOp, len(d.Ops))}
	tr := func(v int) (int, error) {
		if v < 0 {
			return 0, fmt.Errorf("graph: delta rebase: negative node %d", v)
		}
		if v >= len(perm) {
			return v, nil // introduced by the delta's own node ops
		}
		return perm[v], nil
	}
	for i, op := range d.Ops {
		switch op.Kind {
		case DeltaInsert, DeltaDelete:
			from, err := tr(op.Edge.From)
			if err != nil {
				return nil, err
			}
			to, err := tr(op.Edge.To)
			if err != nil {
				return nil, err
			}
			op.Edge.From, op.Edge.To = from, to
		case DeltaRemoveNode:
			v, err := tr(op.Edge.From)
			if err != nil {
				return nil, err
			}
			op.Edge.From = v
		}
		out.Ops[i] = op
	}
	return out, nil
}

// Apply applies the delta to g, op by op. Edge ops mutate g in place; node
// ops rebuild the table, so the returned graph may differ from g — callers
// must use the return value and discard g. On error the graph is left in an
// unspecified intermediate state (clone first, or use ApplyClone, when
// atomicity matters).
//
// Apply enforces the structural model per op — ports within 1..δ, nodes in
// range, no self-loops, no double wiring, deletes naming the exact current
// edge, removals only of fully-unwired nodes — and, after the last op, that
// every node touched by the delta still has at least one wired in-port and
// out-port. It does not check strong connectivity: that is the remap layer's
// job (an O(N) pass this layer must not force on every small delta).
func (d *Delta) Apply(g *Graph) (*Graph, error) {
	touched := make(map[int]struct{}, 2*len(d.Ops))
	for i := 0; i < len(d.Ops); i++ {
		op := d.Ops[i]
		switch op.Kind {
		case DeltaInsert:
			e := op.Edge
			if err := g.Connect(e.From, e.OutPort, e.To, e.InPort); err != nil {
				return g, fmt.Errorf("graph: delta op %d (%v): %w", i, op.Kind, err)
			}
			touched[e.From] = struct{}{}
			touched[e.To] = struct{}{}
		case DeltaDelete:
			e := op.Edge
			got, err := g.Disconnect(e.From, e.OutPort)
			if err != nil {
				return g, fmt.Errorf("graph: delta op %d (%v): %w", i, op.Kind, err)
			}
			if got.Node != e.To || got.Port != e.InPort {
				// Rewire what we just removed: the delete names a different
				// edge than the one wired, so the delta does not match the
				// graph it is being applied to.
				g.MustConnect(e.From, e.OutPort, got.Node, got.Port)
				return g, fmt.Errorf("graph: delta op %d (%v): edge %d:%d targets %d:%d, delta says %d:%d",
					i, op.Kind, e.From, e.OutPort, got.Node, got.Port, e.To, e.InPort)
			}
			touched[e.From] = struct{}{}
			touched[e.To] = struct{}{}
		case DeltaAddNode:
			// A run of additions grows the table once: per-op growth
			// would copy the whole graph for every added node.
			k := 1
			for i+k < len(d.Ops) && d.Ops[i+k].Kind == DeltaAddNode {
				k++
			}
			n := g.N()
			g = g.grow(k)
			for v := n; v < n+k; v++ {
				touched[v] = struct{}{}
			}
			i += k - 1
		case DeltaRemoveNode:
			v := op.Edge.From
			var err error
			if g, err = g.removeNode(v); err != nil {
				return g, fmt.Errorf("graph: delta op %d (%v): %w", i, op.Kind, err)
			}
			// Compact the touched set alongside the ids. Rebuild into a
			// fresh map: shifting keys while ranging the old one may
			// revisit (and double-shift) the entries it adds.
			shifted := make(map[int]struct{}, len(touched))
			for t := range touched {
				switch {
				case t == v:
				case t > v:
					shifted[t-1] = struct{}{}
				default:
					shifted[t] = struct{}{}
				}
			}
			touched = shifted
		default:
			return g, fmt.Errorf("graph: delta op %d: unknown kind %d", i, op.Kind)
		}
	}
	check := make([]int, 0, len(touched))
	for v := range touched {
		check = append(check, v)
	}
	sort.Ints(check) // deterministic error attribution regardless of map order
	for _, v := range check {
		if g.OutDegree(v) == 0 {
			return g, fmt.Errorf("graph: delta leaves node %d with no wired out-port", v)
		}
		if g.InDegree(v) == 0 {
			return g, fmt.Errorf("graph: delta leaves node %d with no wired in-port", v)
		}
	}
	return g, nil
}

// ApplyClone applies the delta to a copy of g, leaving g untouched.
func (d *Delta) ApplyClone(g *Graph) (*Graph, error) {
	return d.Apply(g.Clone())
}

// MustApplyClone is ApplyClone that panics on error; for tests and
// generators whose deltas are correct by construction.
func (d *Delta) MustApplyClone(g *Graph) *Graph {
	out, err := d.ApplyClone(g)
	if err != nil {
		panic(err)
	}
	return out
}

// grow returns a copy of g with k more (fully unwired) nodes appended.
func (g *Graph) grow(k int) *Graph {
	n := g.N()
	c := New(n+k, g.delta)
	for v := 0; v < n; v++ {
		copy(c.out[v], g.out[v])
		copy(c.in[v], g.in[v])
	}
	return c
}

// removeNode drops node v — which must have no wired ports left — and shifts
// every higher id down by one.
func (g *Graph) removeNode(v int) (*Graph, error) {
	n := g.N()
	if v < 0 || v >= n {
		return g, fmt.Errorf("graph: remove-node %d out of range [0,%d)", v, n)
	}
	if n == 1 {
		return g, fmt.Errorf("graph: cannot remove the last node")
	}
	if g.OutDegree(v) != 0 || g.InDegree(v) != 0 {
		return g, fmt.Errorf("graph: remove-node %d still has wired ports (delete its edges first)", v)
	}
	c := New(n-1, g.delta)
	shift := func(u int) int {
		if u > v {
			return u - 1
		}
		return u
	}
	for u := 0; u < n; u++ {
		if u == v {
			continue
		}
		nu := shift(u)
		for p := 0; p < g.delta; p++ {
			if e := g.out[u][p]; e.Node != NoPort {
				c.out[nu][p] = Endpoint{shift(e.Node), e.Port}
			}
			if e := g.in[u][p]; e.Node != NoPort {
				c.in[nu][p] = Endpoint{shift(e.Node), e.Port}
			}
		}
	}
	return c, nil
}

// MarshalText renders the delta in the repository's one-line text form:
//
//	patch +3:2>17:2 -5:1>6:1 n+ n-12
//
// "+F:P>T:Q" wires out-port P of F to in-port Q of T, "-F:P>T:Q" unwires it,
// "n+" appends a node, and "n-V" removes node V. Ops apply left to right.
func (d *Delta) MarshalText() string {
	var b strings.Builder
	b.Grow(6 + 16*len(d.Ops))
	b.WriteString("patch")
	buf := make([]byte, 0, 32)
	for _, op := range d.Ops {
		buf = buf[:0]
		buf = append(buf, ' ')
		switch op.Kind {
		case DeltaInsert, DeltaDelete:
			if op.Kind == DeltaInsert {
				buf = append(buf, '+')
			} else {
				buf = append(buf, '-')
			}
			buf = strconv.AppendInt(buf, int64(op.Edge.From), 10)
			buf = append(buf, ':')
			buf = strconv.AppendInt(buf, int64(op.Edge.OutPort), 10)
			buf = append(buf, '>')
			buf = strconv.AppendInt(buf, int64(op.Edge.To), 10)
			buf = append(buf, ':')
			buf = strconv.AppendInt(buf, int64(op.Edge.InPort), 10)
		case DeltaAddNode:
			buf = append(buf, "n+"...)
		case DeltaRemoveNode:
			buf = append(buf, "n-"...)
			buf = strconv.AppendInt(buf, int64(op.Edge.From), 10)
		}
		b.Write(buf)
	}
	return b.String()
}

// MaxDeltaOps bounds the ops one delta may carry, shared by the text and
// binary decoders: a malformed or hostile frame must not commit unbounded
// memory before validation.
const MaxDeltaOps = 1 << 16

// UnmarshalDeltaString parses the one-line text form produced by
// MarshalText. The leading "patch" keyword is required; an empty op list is
// legal (the identity delta).
func UnmarshalDeltaString(s string) (*Delta, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 || fields[0] != "patch" {
		return nil, fmt.Errorf("graph: delta: missing 'patch' keyword")
	}
	if len(fields)-1 > MaxDeltaOps {
		return nil, fmt.Errorf("graph: delta: %d ops exceed the %d-op bound", len(fields)-1, MaxDeltaOps)
	}
	d := &Delta{Ops: make([]DeltaOp, 0, len(fields)-1)}
	for _, f := range fields[1:] {
		op, err := parseDeltaOp(f)
		if err != nil {
			return nil, err
		}
		d.Ops = append(d.Ops, op)
	}
	return d, nil
}

// parseDeltaOp parses one op token of the text form.
func parseDeltaOp(f string) (DeltaOp, error) {
	switch {
	case f == "n+":
		return DeltaOp{Kind: DeltaAddNode}, nil
	case strings.HasPrefix(f, "n-"):
		v, err := strconv.Atoi(f[2:])
		if err != nil || v < 0 {
			return DeltaOp{}, fmt.Errorf("graph: delta: bad remove-node op %q", f)
		}
		return DeltaOp{Kind: DeltaRemoveNode, Edge: Edge{From: v}}, nil
	case strings.HasPrefix(f, "+") || strings.HasPrefix(f, "-"):
		kind := DeltaInsert
		if f[0] == '-' {
			kind = DeltaDelete
		}
		e, err := parseEdgeToken(f[1:])
		if err != nil {
			return DeltaOp{}, fmt.Errorf("graph: delta: bad edge op %q: %v", f, err)
		}
		return DeltaOp{Kind: kind, Edge: e}, nil
	}
	return DeltaOp{}, fmt.Errorf("graph: delta: unknown op %q", f)
}

// parseEdgeToken parses "F:P>T:Q" into an Edge.
func parseEdgeToken(s string) (Edge, error) {
	gt := strings.IndexByte(s, '>')
	if gt < 0 {
		return Edge{}, fmt.Errorf("missing '>'")
	}
	from, outPort, err := parsePortPair(s[:gt])
	if err != nil {
		return Edge{}, err
	}
	to, inPort, err := parsePortPair(s[gt+1:])
	if err != nil {
		return Edge{}, err
	}
	return Edge{From: from, OutPort: outPort, To: to, InPort: inPort}, nil
}

// parsePortPair parses "NODE:PORT" with both halves non-negative.
func parsePortPair(s string) (node, port int, err error) {
	c := strings.IndexByte(s, ':')
	if c < 0 {
		return 0, 0, fmt.Errorf("missing ':' in %q", s)
	}
	if node, err = strconv.Atoi(s[:c]); err != nil || node < 0 {
		return 0, 0, fmt.Errorf("bad node in %q", s)
	}
	if port, err = strconv.Atoi(s[c+1:]); err != nil || port < 1 {
		return 0, 0, fmt.Errorf("bad port in %q", s)
	}
	return node, port, nil
}

// String renders the delta compactly for diagnostics.
func (d *Delta) String() string {
	if d == nil {
		return "patch"
	}
	return d.MarshalText()
}

// Isomorphism returns the unique port-preserving isomorphism from g anchored
// at gRoot onto h anchored at hRoot, as a slice perm with perm[v] = the
// h-node corresponding to g-node v, or ok=false when the anchored pairs are
// not isomorphic. Because ports are numbered, the isomorphism — when it
// exists — is forced by following identically-numbered ports from the roots,
// so it can be computed in one traversal of each graph. Clients use it to
// Rebase deltas built in their own labelling into a reconstruction's.
func Isomorphism(g *Graph, gRoot int, h *Graph, hRoot int) (perm []int, ok bool) {
	if g.N() != h.N() || g.delta != h.delta {
		return nil, false
	}
	n := g.N()
	if gRoot < 0 || gRoot >= n || hRoot < 0 || hRoot >= n {
		return nil, false
	}
	perm = make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	seen := make([]bool, n) // h-side nodes already claimed
	queue := make([]int, 0, n)
	perm[gRoot], seen[hRoot] = hRoot, true
	queue = append(queue, gRoot)
	matched := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		w := perm[v]
		for p := 0; p < g.delta; p++ {
			ge, he := g.out[v][p], h.out[w][p]
			if (ge.Node == NoPort) != (he.Node == NoPort) {
				return nil, false
			}
			if ge.Node == NoPort {
				continue
			}
			if ge.Port != he.Port {
				return nil, false
			}
			if m := perm[ge.Node]; m != -1 {
				if m != he.Node {
					return nil, false
				}
				continue
			}
			if seen[he.Node] {
				return nil, false
			}
			perm[ge.Node], seen[he.Node] = he.Node, true
			matched++
			queue = append(queue, ge.Node)
		}
	}
	if matched != n {
		// Some node is unreachable from the root; the anchored canonical
		// forms (which tolerate unreached nodes) are the authority here, and
		// without full coverage the mapping is not a permutation.
		return nil, false
	}
	// The forced mapping covers every node; confirm the full wiring (in
	// sides included) by comparing the relabeled graph.
	return perm, g.Relabel(perm).Equal(h)
}
