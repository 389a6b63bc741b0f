package graph

import (
	"fmt"
	"slices"
)

// StronglyConnected reports whether every node can reach every other node.
// It uses Tarjan's algorithm (iterative) and reports true iff there is a
// single strongly connected component covering all nodes.
func (g *Graph) StronglyConnected() bool {
	n := g.N()
	if n == 0 {
		return false
	}
	return len(g.SCCs()) == 1
}

// SCCs returns the strongly connected components of g, each as a sorted list
// of nodes, in reverse topological order of the condensation (Tarjan's
// output order).
func (g *Graph) SCCs() [][]int {
	n := g.N()
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	next := 0

	// Iterative Tarjan: frame holds the node and the next successor index
	// to explore.
	type frame struct {
		v    int
		succ []int
		i    int
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames := []frame{{v: start, succ: g.Successors(start)}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, succ: g.Successors(w)})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Finished v.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				slices.Sort(comp)
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// BFSDistances returns d[v] = length of the shortest directed path from src
// to v, or -1 if unreachable.
func (g *Graph) BFSDistances(src int) []int {
	n := g.N()
	d := make([]int, n)
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for p := 1; p <= g.delta; p++ {
			if e := g.out[v][p-1]; e.Node != NoPort && d[e.Node] == -1 {
				d[e.Node] = d[v] + 1
				queue = append(queue, e.Node)
			}
		}
	}
	return d
}

// Distance returns the length of the shortest directed path from u to v, or
// -1 if v is unreachable from u.
func (g *Graph) Distance(u, v int) int { return g.BFSDistances(u)[v] }

// Diameter returns the directed diameter D = max over ordered pairs (u, v)
// of the shortest-path distance. It returns -1 if the graph is not strongly
// connected.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		d := g.BFSDistances(v)
		for _, x := range d {
			if x == -1 {
				return -1
			}
			if x > diam {
				diam = x
			}
		}
	}
	return diam
}

// Eccentricity returns max over v of Distance(src, v), or -1 if some node is
// unreachable.
func (g *Graph) Eccentricity(src int) int {
	ecc := 0
	for _, x := range g.BFSDistances(src) {
		if x == -1 {
			return -1
		}
		if x > ecc {
			ecc = x
		}
	}
	return ecc
}

// CanonicalPath returns the canonical shortest path from src to dst as the
// protocol's growing snakes would carve it (Definition 4.1): breadth-first
// flooding from src where, among simultaneously arriving snake heads, the one
// entering through the lowest-numbered in-port wins, and the parent's
// character stream determines the path. The result is the list of edges from
// src to dst. It returns nil if dst is unreachable or equals src.
//
// Tie-break detail mirrored from the implementation: all copies of the
// flooding stream advance in lockstep, so a node at distance k hears heads at
// the same tick from every distance-(k-1) predecessor; the chosen parent is
// the one wired to the lowest-numbered in-port among those predecessors.
func (g *Graph) CanonicalPath(src, dst int) []Edge {
	if src == dst {
		return nil
	}
	n := g.N()
	dist := g.BFSDistances(src)
	if dst < 0 || dst >= n || dist[dst] <= 0 {
		return nil
	}
	// parentEdge[v] = edge by which the canonical flood first enters v.
	parentEdge := make([]Edge, n)
	chosen := make([]bool, n)
	for v := 0; v < n; v++ {
		if v == src || dist[v] <= 0 {
			continue
		}
		// Among in-ports of v whose source is at distance dist[v]-1,
		// pick the lowest in-port number.
		for p := 1; p <= g.delta; p++ {
			e := g.in[v][p-1]
			if e.Node == NoPort {
				continue
			}
			if dist[e.Node] == dist[v]-1 {
				parentEdge[v] = Edge{From: e.Node, OutPort: e.Port, To: v, InPort: p}
				chosen[v] = true
				break
			}
		}
		if !chosen[v] {
			panic(fmt.Sprintf("graph: BFS parent missing for node %d", v))
		}
	}
	// Walk back from dst, then reverse to obtain the src→dst order.
	var path []Edge
	for v := dst; v != src; v = parentEdge[v].From {
		path = append(path, parentEdge[v])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// PathEnd follows a sequence of edges from src using only the port labels and
// returns the final node, or -1 if the ports do not describe a valid walk
// from src.
func (g *Graph) PathEnd(src int, path []Edge) int {
	v := src
	for _, e := range path {
		ep := g.out[v][e.OutPort-1]
		if ep.Node == NoPort || ep.Port != e.InPort {
			return -1
		}
		v = ep.Node
	}
	return v
}
