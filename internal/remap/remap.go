// Package remap patches GTD reconstructions under graph deltas instead of
// re-running the full protocol (DESIGN.md §2.9).
//
// The enabling theorem: the protocol's reconstruction of (g, root) is the
// DFS-preorder relabel of g anchored at root, following out-ports in
// ascending order. The mapper names nodes by the first root-path that
// reaches them and the root's automaton explores ports in ascending order
// backtracking like a DFS, so discovery order IS preorder; the equivalence
// is pinned against the engine across the family corpus, seeds, worker
// counts, and scheduler policies by TestRemapMatchesEngine.
//
// In reconstruction space the labels therefore *are* the preorder — node v
// was the v-th node discovered — which collapses the remap state to one
// parent pointer per node (the tree edge that discovered it). A delta op is
// "label-stable" when it provably cannot change any discovery: deleting a
// non-tree edge, or inserting an edge u→v whose target was discovered before
// its source (v < u). A batch of label-stable ops patches the reconstruction
// in O(k). Anything else invalidates at most the preorder suffix from a
// cut position t*: the replay rebuilds the DFS stack at the moment label
// t*−1 was assigned (the ancestor chain of node t*−1 plus per-frame port
// progress) and resumes the traversal on the mutated graph, touching only
// the suffix. A full structural rebuild is the same replay with t* = 0.
package remap

import (
	"errors"
	"fmt"

	"topomap/internal/graph"
)

// DefaultMaxDirtyFrac is the fallback threshold: a patch whose estimated
// dirty suffix exceeds this fraction of the post-delta node count refuses
// with ErrTooDirty so the caller can run a full protocol remap instead.
const DefaultMaxDirtyFrac = 0.25

// ErrTooDirty reports that the delta invalidates more of the reconstruction
// than the configured fraction allows; the caller should fall back to a full
// remap. It is returned before any node-count-sized work is done.
var ErrTooDirty = errors.New("remap: dirty set exceeds the fallback threshold")

// State is the remap metadata for one reconstruction: the DFS tree that
// produced its labels. Because labels are preorder positions, parent[v] and
// parentPort[v] — the tree edge that discovered v — are the whole state.
// States are immutable once returned; Patch shares or replaces them, never
// mutates in place.
type State struct {
	parent     []int32 // parent[v] = tree parent of v, -1 for the root
	parentPort []uint8 // parentPort[v] = out-port of parent[v] wired to v
}

// Parent returns the tree edge that discovered node v: its parent node and
// the parent's out-port. The root returns (-1, 0).
func Parent(st *State, v int) (parent, port int) {
	return int(st.parent[v]), int(st.parentPort[v])
}

// Options tunes a Patch call.
type Options struct {
	// MaxDirtyFrac is the dirty-suffix fraction above which Patch returns
	// ErrTooDirty. 0 selects DefaultMaxDirtyFrac; 1 (or more) disables the
	// fallback so every delta is patched structurally.
	MaxDirtyFrac float64
}

// Result is a successful patch: the post-delta reconstruction (labels =
// preorder, root = node 0), its remap state, and how much was replayed.
type Result struct {
	Graph *graph.Graph
	State *State
	// Dirty is the number of preorder positions replayed (0 when the batch
	// was label-stable).
	Dirty int
	// Replayed reports whether the suffix replay ran at all; a false value
	// means the O(k) label-stable path served the patch.
	Replayed bool
}

// Rebuild computes the reconstruction of (g, root) structurally: the
// DFS-preorder relabel with its remap state. By the package theorem this
// equals the protocol's RunResult.Topology for the same (g, root); it exists
// as the from-scratch entry point (deriving state for a graph mapped by the
// engine) and as the full-rebuild comparator in E21.
//
// When g is already in DFS preorder from root (root 0, every node's label
// its preorder rank), the returned graph is g itself, not a copy: a caller
// that mutates the result — with Delta.Apply, say — mutates g too, and must
// Clone (or use Delta.ApplyClone) first.
func Rebuild(g *graph.Graph, root int) (*graph.Graph, *State, error) {
	n := g.N()
	if root < 0 || root >= n {
		return nil, nil, fmt.Errorf("remap: root %d out of range [0,%d)", root, n)
	}
	name := make([]int32, n)
	for i := range name {
		name[i] = -1
	}
	st := newState(n)
	stack := make([]frame, 1, 64)
	stack[0] = frame{v: int32(root), p: 1}
	name[root] = 0
	st.parent[0] = -1
	next := int32(1)
	next, identity, err := replay(g, name, st, stack, next, root == 0)
	if err != nil {
		return nil, nil, err
	}
	if int(next) != n {
		return nil, nil, fmt.Errorf("remap: root %d reaches only %d of %d nodes", root, next, n)
	}
	if identity {
		return g, st, nil
	}
	return g.RelabelDense(name), st, nil
}

// Derive returns the remap state of a graph already in reconstruction space:
// its DFS preorder from node 0 must be the identity. Use it to start
// patching from an engine-produced RunResult.Topology.
func Derive(r *graph.Graph) (*State, error) {
	rg, st, err := Rebuild(r, 0)
	if err != nil {
		return nil, err
	}
	if rg != r {
		// Rebuild returns its input exactly when the relabel is the
		// identity, i.e. when r is already a canonical reconstruction.
		return nil, fmt.Errorf("remap: graph is not in reconstruction form (preorder is not the identity)")
	}
	return st, nil
}

// frame is one suspended DFS position: node v about to scan out-port p.
type frame struct {
	v int32
	p int32
}

func newState(n int) *State {
	return &State{parent: make([]int32, n), parentPort: make([]uint8, n)}
}

// Patch applies d to the reconstruction prev (with state st, as produced by
// Derive, Rebuild, or a prior Patch) and returns the post-delta
// reconstruction. prev is never mutated — cached entries can be patched
// while being served. Delta node ids are reconstruction labels (node 0 is
// the root); ids introduced by the delta's own node ops continue upward from
// prev.N().
//
// The label-stable fast path costs O(N) only for the clone memcpy (plus O(k)
// patching); a risky batch replays the preorder suffix from the cut t*; a
// node removal forces a full rebuild and a full model revalidation. Deleted
// edges are re-checked for strong connectivity by reachability on the
// patched graph (removing u→v keeps the component strong iff u still
// reaches v); inserts cannot break it.
func Patch(prev *graph.Graph, st *State, d *graph.Delta, opt Options) (*Result, error) {
	n0 := prev.N()
	if len(st.parent) != n0 {
		return nil, fmt.Errorf("remap: state covers %d nodes, graph has %d", len(st.parent), n0)
	}
	tstar, risky, hasRemove, n1, err := classify(st, d, n0)
	if err != nil {
		return nil, err
	}
	frac := opt.MaxDirtyFrac
	if frac == 0 {
		frac = DefaultMaxDirtyFrac
	}
	if risky && frac < 1 && n1 > 0 {
		if dirty := n1 - int(tstar); float64(dirty) > frac*float64(n1) {
			return nil, fmt.Errorf("%w: %d of %d nodes past cut %d (max %.2f)",
				ErrTooDirty, dirty, n1, tstar, frac)
		}
	}

	g1, err := d.ApplyClone(prev)
	if err != nil {
		return nil, err
	}
	if g1.N() != n1 {
		return nil, fmt.Errorf("remap: internal: expected %d nodes post-delta, got %d", n1, g1.N())
	}

	if !risky {
		// Label-stable: no discovery changed, so the graph is already in
		// reconstruction form and the tree is untouched.
		if err := checkDeletes(prev, g1, d); err != nil {
			return nil, err
		}
		return &Result{Graph: g1, State: st}, nil
	}

	res, err := replayFrom(g1, st, tstar)
	if err != nil {
		return nil, err
	}
	if hasRemove {
		// Node removal compacts ids out from under every delete's
		// reachability argument; revalidate the whole model instead.
		if err := res.Graph.Validate(); err != nil {
			return nil, fmt.Errorf("remap: delta breaks the model: %w", err)
		}
	} else if err := checkDeletes(prev, g1, d); err != nil {
		return nil, err
	}
	return res, nil
}

// classify scans the ops against the tree state and returns the replay cut
// t* (meaningful when risky), whether any op can change labels, whether a
// node removal occurs, and the post-delta node count.
func classify(st *State, d *graph.Delta, n0 int) (tstar int32, risky, hasRemove bool, n1 int, err error) {
	tstar = int32(n0)
	n1 = n0
	cut := func(t int32) {
		risky = true
		if t < tstar {
			tstar = t
		}
	}
	for i, op := range d.Ops {
		switch op.Kind {
		case graph.DeltaInsert:
			e := op.Edge
			if e.From >= n0 {
				// Out-edge of a node the delta itself introduced: it cannot
				// be scanned before its owner is discovered, so it never
				// perturbs the prefix on its own.
				continue
			}
			if e.To < e.From && e.To < n0 {
				continue // target discovered strictly before the source
			}
			cut(int32(e.From) + 1)
		case graph.DeltaDelete:
			e := op.Edge
			if e.To >= n0 || e.To < 0 {
				continue // edge to a delta-introduced node: never a tree edge
			}
			if int(st.parent[e.To]) == e.From && int(st.parentPort[e.To]) == e.OutPort {
				cut(int32(e.To)) // severs the edge that discovered e.To
			}
		case graph.DeltaAddNode:
			n1++
			// A node addition is never label-stable, even when every
			// connecting insert originates at delta-introduced nodes (and so
			// perturbs no existing label): a batch can wire its new nodes
			// only among themselves, which passes Apply's per-node degree
			// checks but leaves a disconnected island. Cutting at n0 keeps
			// the whole old prefix pinned while routing the patch through
			// replayFrom, whose full-reachability check rejects any addition
			// the root cannot reach.
			cut(int32(n0))
		case graph.DeltaRemoveNode:
			if op.Edge.From == 0 {
				return 0, false, false, 0, fmt.Errorf("remap: delta op %d removes the root", i)
			}
			n1--
			hasRemove = true
			cut(0) // id compaction invalidates every position
		default:
			return 0, false, false, 0, fmt.Errorf("remap: delta op %d: unknown kind %d", i, op.Kind)
		}
	}
	if n1 < 1 {
		return 0, false, false, 0, fmt.Errorf("remap: delta removes every node")
	}
	return tstar, risky, hasRemove, n1, nil
}

// replayFrom resumes the DFS on g1 at cut t*: labels below t* are pinned,
// the stack is rebuilt as the ancestor chain of node t*−1 with each frame's
// port progress, and the traversal continues on the mutated wiring. t* = 0
// is the full rebuild.
func replayFrom(g1 *graph.Graph, st *State, tstar int32) (*Result, error) {
	n1 := g1.N()
	name := make([]int32, n1)
	for v := range name {
		if int32(v) < tstar {
			name[v] = int32(v)
		} else {
			name[v] = -1
		}
	}
	ns := newState(n1)
	copy(ns.parent, st.parent[:min(int(tstar), len(st.parent))])
	copy(ns.parentPort, st.parentPort[:min(int(tstar), len(st.parentPort))])

	var stack []frame
	next := tstar
	if tstar == 0 {
		stack = append(stack, frame{v: 0, p: 1})
		name[0] = 0
		ns.parent[0] = -1
		ns.parentPort[0] = 0
		next = 1 // the root consumed label 0
	} else {
		// Ancestor chain of the last pinned node, deepest last. The chain
		// lives entirely in the pinned prefix (a node's tree ancestors are
		// discovered before it), so the old parent pointers are authoritative.
		for c := tstar - 1; c != -1; c = st.parent[c] {
			stack = append(stack, frame{v: c})
		}
		for i, j := 0, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
		// A frame resumes just past the port that discovered its chain
		// child; the deepest node has scanned nothing yet.
		for i := 0; i+1 < len(stack); i++ {
			stack[i].p = int32(st.parentPort[stack[i+1].v]) + 1
		}
		stack[len(stack)-1].p = 1
	}

	next, identity, err := replay(g1, name, ns, stack, next, true)
	if err != nil {
		return nil, err
	}
	if int(next) != n1 {
		return nil, fmt.Errorf("remap: delta breaks the model: root reaches only %d of %d nodes", next, n1)
	}
	res := &Result{State: ns, Dirty: n1 - int(tstar), Replayed: true}
	if identity {
		res.Graph = g1
	} else {
		res.Graph = g1.RelabelDense(name)
	}
	return res, nil
}

// replay runs the DFS loop from the given stack/labels, assigning labels
// from next upward and recording tree parents (in label space) into st.
// identityIn seeds the identity tracking: whether every label assigned so
// far equals its node id.
func replay(g *graph.Graph, name []int32, st *State, stack []frame, next int32, identityIn bool) (int32, bool, error) {
	delta := g.Delta()
	identity := identityIn
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if int(f.p) > delta {
			stack = stack[:len(stack)-1]
			continue
		}
		p := f.p
		f.p++
		e, ok := g.OutEndpoint(int(f.v), int(p))
		if !ok || name[e.Node] != -1 {
			continue
		}
		label := next
		next++
		name[e.Node] = label
		if int32(e.Node) != label {
			identity = false
		}
		st.parent[label] = name[f.v]
		st.parentPort[label] = uint8(p)
		stack = append(stack, frame{v: int32(e.Node), p: 1})
	}
	return next, identity, nil
}

// checkDeletes verifies strong connectivity survives the batch: the patched
// graph remains strongly connected iff, for every deleted edge u→v, u still
// reaches v on the patched wiring (every rerouted walk certifies itself; a
// failure names the broken pair). Ids of delta-introduced nodes need no
// check — their edges were inserted, not deleted, and prev never knew them.
func checkDeletes(prev, g1 *graph.Graph, d *graph.Delta) error {
	var scratch *reachScratch
	for i, op := range d.Ops {
		if op.Kind != graph.DeltaDelete {
			continue
		}
		e := op.Edge
		if e.From >= g1.N() || e.To >= g1.N() {
			// The endpoint was removed later in the batch; the hasRemove
			// path revalidates in full and never reaches here.
			continue
		}
		if scratch == nil {
			scratch = &reachScratch{
				seen:  make([]bool, g1.N()),
				queue: make([]int32, 0, 64),
			}
		}
		if !scratch.reaches(g1, e.From, e.To) {
			return fmt.Errorf("remap: delta op %d breaks strong connectivity: %d no longer reaches %d",
				i, e.From, e.To)
		}
	}
	return nil
}

// reachScratch is the reusable BFS state for delete revalidation.
type reachScratch struct {
	seen  []bool
	queue []int32
}

// reaches reports whether from reaches to in g by directed BFS.
func (sc *reachScratch) reaches(g *graph.Graph, from, to int) bool {
	if from == to {
		return true
	}
	for i := range sc.seen {
		sc.seen[i] = false
	}
	sc.queue = sc.queue[:0]
	sc.seen[from] = true
	sc.queue = append(sc.queue, int32(from))
	delta := g.Delta()
	for head := 0; head < len(sc.queue); head++ {
		v := int(sc.queue[head])
		for p := 1; p <= delta; p++ {
			e, ok := g.OutEndpoint(v, p)
			if !ok || sc.seen[e.Node] {
				continue
			}
			if e.Node == to {
				return true
			}
			sc.seen[e.Node] = true
			sc.queue = append(sc.queue, int32(e.Node))
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
