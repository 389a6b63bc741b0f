package main

import (
	"fmt"
	"math/rand"

	"topomap/internal/graph"
)

// recon is an oracle reconstruction: the relabelled graph, the label each
// node of the input received, and the DFS tree that assigned the labels
// (parent and parent out-port, in label space; the root's parent is -1).
type recon struct {
	g      *graph.Graph
	label  []int32
	parent []int32
	pport  []int32
}

// preorder is the benchmark's oracle. By the preorder theorem (DESIGN.md
// §2.9) the reconstruction of (g, root) is g relabelled in the order a
// depth-first search from root discovers its nodes, scanning each node's
// out-ports in ascending order, with every port number kept. It is
// written against the graph accessors alone, so the remap layer and the
// canonical forms it checks cannot vouch for themselves.
func preorder(g *graph.Graph, root int) (*recon, error) {
	n, delta := g.N(), g.Delta()
	rc := &recon{label: make([]int32, n), parent: make([]int32, n), pport: make([]int32, n)}
	label := rc.label
	for i := range label {
		label[i] = -1
	}
	rc.parent[0] = -1
	type frame struct{ v, p int }
	stack := []frame{{root, 1}}
	label[root] = 0
	next := int32(1)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.p > delta {
			stack = stack[:len(stack)-1]
			continue
		}
		e, ok := g.OutEndpoint(f.v, f.p)
		f.p++
		if ok && label[e.Node] == -1 {
			label[e.Node] = next
			rc.parent[next], rc.pport[next] = label[f.v], int32(f.p-1)
			next++
			stack = append(stack, frame{e.Node, 1})
		}
	}
	if int(next) != n {
		return nil, fmt.Errorf("oracle: root %d reaches %d of %d nodes", root, next, n)
	}
	rc.g = graph.New(n, delta)
	for v := 0; v < n; v++ {
		for p := 1; p <= delta; p++ {
			if e, ok := g.OutEndpoint(v, p); ok {
				if err := rc.g.Connect(int(label[v]), p, int(label[e.Node]), e.Port); err != nil {
					return nil, fmt.Errorf("oracle: %w", err)
				}
			}
		}
	}
	return rc, nil
}

// relabelled returns a copy of g under a seeded random permutation and the
// new name of root. With keepRoot the root keeps its name.
func relabelled(g *graph.Graph, root int, rng *rand.Rand, keepRoot bool) (*graph.Graph, int) {
	perm := rng.Perm(g.N())
	if keepRoot {
		for i, v := range perm {
			if v == root {
				perm[i], perm[root] = perm[root], root
				break
			}
		}
	}
	return g.Relabel(perm), perm[root]
}
