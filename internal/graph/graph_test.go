package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConnectErrors(t *testing.T) {
	g := New(3, 2)
	if err := g.Connect(0, 1, 0, 1); err == nil {
		t.Error("self-loop must be rejected")
	}
	if err := g.Connect(0, 3, 1, 1); err == nil {
		t.Error("out-port beyond δ must be rejected")
	}
	if err := g.Connect(0, 1, 1, 0); err == nil {
		t.Error("in-port 0 must be rejected")
	}
	if err := g.Connect(-1, 1, 1, 1); err == nil {
		t.Error("negative node must be rejected")
	}
	if err := g.Connect(0, 1, 1, 1); err != nil {
		t.Fatalf("legal connect failed: %v", err)
	}
	if err := g.Connect(0, 1, 2, 1); err == nil {
		t.Error("double-wiring an out-port must be rejected")
	}
	if err := g.Connect(2, 1, 1, 1); err == nil {
		t.Error("double-wiring an in-port must be rejected")
	}
}

func TestConnectNextAndFreePorts(t *testing.T) {
	g := New(2, 2)
	op, ip, err := g.ConnectNext(0, 1)
	if err != nil || op != 1 || ip != 1 {
		t.Fatalf("first ConnectNext: %d %d %v", op, ip, err)
	}
	op, ip, err = g.ConnectNext(0, 1)
	if err != nil || op != 2 || ip != 2 {
		t.Fatalf("second ConnectNext: %d %d %v", op, ip, err)
	}
	if _, _, err := g.ConnectNext(0, 1); err == nil {
		t.Fatal("exhausted ports must error")
	}
	if g.FreeOutPort(0) != 0 || g.FreeInPort(1) != 0 {
		t.Fatal("free ports should be exhausted")
	}
}

func TestDegreesAndEdges(t *testing.T) {
	g := TwoCycle()
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 {
		t.Fatal("two-cycle degrees wrong")
	}
	es := g.Edges()
	if len(es) != 2 || g.NumEdges() != 2 {
		t.Fatalf("edges: %v", es)
	}
	if es[0].From != 0 || es[1].From != 1 {
		t.Fatal("edges must be ordered by source")
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	g := ParallelPair()
	if s := g.Successors(0); len(s) != 1 || s[0] != 1 {
		t.Fatalf("parallel edges must yield one distinct successor: %v", s)
	}
	if p := g.Predecessors(1); len(p) != 1 || p[0] != 0 {
		t.Fatalf("predecessors: %v", p)
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := Torus(3, 3)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone must equal the original")
	}
	c2 := New(g.N(), g.Delta())
	if g.Equal(c2) {
		t.Fatal("empty graph must differ")
	}
}

func TestRelabelIsomorphism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g := Random(n, 3, 2*n, seed)
		perm := rng.Perm(n)
		h := g.Relabel(perm)
		return g.IsomorphicFrom(0, h, perm[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalDetectsChange(t *testing.T) {
	g := Ring(6)
	h := Ring(6)
	// Rewire one edge differently: 0→1 becomes 0→... swap two targets.
	h2 := New(6, 2)
	h2.MustConnect(0, 1, 2, 2) // different in-port usage
	for v := 1; v < 6; v++ {
		h2.MustConnect(v, 1, (v+1)%6, 1)
	}
	if g.CanonicalFrom(0) != h.CanonicalFrom(0) {
		t.Fatal("identical rings must share canonical form")
	}
	if g.CanonicalFrom(0) == h2.CanonicalFrom(0) {
		t.Fatal("port change must alter the canonical form")
	}
}

func TestValidateAllFamilies(t *testing.T) {
	for _, f := range AllFamilies() {
		for _, n := range []int{5, 12, 30} {
			g, err := Build(f, n, 9)
			if err != nil {
				t.Fatalf("%s/%d: %v", f, n, err)
			}
			if err := g.Validate(); err != nil {
				t.Errorf("%s/%d: %v", f, n, err)
			}
		}
	}
}

func TestValidateRejectsSinks(t *testing.T) {
	g := New(2, 2)
	g.MustConnect(0, 1, 1, 1)
	if err := g.Validate(); err == nil {
		t.Fatal("node without out-wire must fail validation")
	}
}

func TestSCCs(t *testing.T) {
	// Two 2-cycles joined one-way: two SCCs.
	g := New(4, 2)
	g.MustConnect(0, 1, 1, 1)
	g.MustConnect(1, 1, 0, 1)
	g.MustConnect(2, 1, 3, 1)
	g.MustConnect(3, 1, 2, 1)
	g.MustConnect(1, 2, 2, 2)
	comps := g.SCCs()
	if len(comps) != 2 {
		t.Fatalf("want 2 SCCs, got %v", comps)
	}
	if g.StronglyConnected() {
		t.Fatal("graph is not strongly connected")
	}
	if !Ring(7).StronglyConnected() {
		t.Fatal("ring must be strongly connected")
	}
	// Large single components under a random relabelling: Tarjan pops
	// them in arbitrary order, and each must come back as the sorted
	// list of every node (and Validate must pass) in O(N log N).
	for _, big := range []*Graph{Ring(1 << 14), Torus(128, 128)} {
		g := big.Relabel(RandomPermutation(big.N(), 3))
		comps := g.SCCs()
		if len(comps) != 1 || len(comps[0]) != g.N() {
			t.Fatalf("N=%d: want one SCC of every node, got %d components", g.N(), len(comps))
		}
		for i, v := range comps[0] {
			if v != i {
				t.Fatalf("N=%d: component not sorted at position %d (node %d)", g.N(), i, v)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("N=%d: %v", g.N(), err)
		}
	}
}

func TestBFSDistancesAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := Random(n, 2, n+rng.Intn(n), seed)
		// Floyd–Warshall reference.
		const inf = 1 << 20
		d := make([][]int, n)
		for i := range d {
			d[i] = make([]int, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = inf
				}
			}
		}
		for _, e := range g.Edges() {
			d[e.From][e.To] = 1
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d[i][k]+d[k][j] < d[i][j] {
						d[i][j] = d[i][k] + d[k][j]
					}
				}
			}
		}
		for src := 0; src < n; src++ {
			bfs := g.BFSDistances(src)
			for v := 0; v < n; v++ {
				want := d[src][v]
				if want == inf {
					want = -1
				}
				if bfs[v] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKnownDiameters(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"ring8", Ring(8), 7},
		{"biring8", BiRing(8), 4},
		{"biring9", BiRing(9), 4},
		{"line5", Line(5), 4},
		{"torus3x4", Torus(3, 4), 5},
		{"hypercube4", Hypercube(4), 4},
		{"kautz2_3", Kautz(2, 3), 4},
	}
	for _, c := range cases {
		if got := c.g.Diameter(); got != c.want {
			t.Errorf("%s: diameter %d, want %d", c.name, got, c.want)
		}
	}
}

func TestEccentricity(t *testing.T) {
	g := Ring(5)
	if e := g.Eccentricity(0); e != 4 {
		t.Fatalf("ring eccentricity %d, want 4", e)
	}
}

func TestKautzStructure(t *testing.T) {
	for _, c := range []struct{ d, k, n int }{{2, 2, 12}, {2, 3, 24}, {3, 2, 36}} {
		g := Kautz(c.d, c.k)
		if g.N() != c.n {
			t.Errorf("K(%d,%d) has %d nodes, want %d", c.d, c.k, g.N(), c.n)
		}
		for v := 0; v < g.N(); v++ {
			if g.OutDegree(v) != c.d || g.InDegree(v) != c.d {
				t.Fatalf("K(%d,%d) node %d degree %d/%d", c.d, c.k, v, g.OutDegree(v), g.InDegree(v))
			}
		}
		if got, want := g.Diameter(), c.k+1; got != want {
			t.Errorf("K(%d,%d) diameter %d, want %d", c.d, c.k, got, want)
		}
	}
}

func TestTreeLoopStructure(t *testing.T) {
	g := TreeLoop(3, nil)
	if g.N() != 15 {
		t.Fatalf("height-3 tree-loop has %d nodes", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := g.Diameter(); d > 2*3+1 {
		t.Fatalf("diameter %d exceeds the Lemma 5.1 bound %d", d, 7)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad permutation must panic")
		}
	}()
	TreeLoop(2, []int{0, 0, 1, 2})
}

func TestRandomRespectsBounds(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := Random(15, 3, 40, seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for v := 0; v < g.N(); v++ {
			if g.OutDegree(v) > 3 || g.InDegree(v) > 3 {
				t.Fatalf("degree bound violated at %d", v)
			}
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(20, 3, 45, 42)
	b := Random(20, 3, 45, 42)
	if !a.Equal(b) {
		t.Fatal("same seed must give the same graph")
	}
}

func TestCanonicalPathProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		g := Random(n, 3, 2*n, seed)
		src := rng.Intn(n)
		dst := rng.Intn(n)
		p := g.CanonicalPath(src, dst)
		if src == dst {
			return p == nil
		}
		// Length equals the BFS distance and the port walk lands on dst.
		if len(p) != g.Distance(src, dst) {
			return false
		}
		return g.PathEnd(src, p) == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalPathTieBreak(t *testing.T) {
	// Diamond: 0→1→3 and 0→2→3, with 3's in-port 1 fed by node 2. The
	// canonical path must enter 3 through the lowest in-port, i.e. via 2.
	g := New(4, 2)
	g.MustConnect(0, 1, 1, 1)
	g.MustConnect(0, 2, 2, 1)
	g.MustConnect(2, 1, 3, 1) // lowest in-port of 3
	g.MustConnect(1, 1, 3, 2)
	g.MustConnect(3, 1, 0, 2) // close strongly
	p := g.CanonicalPath(0, 3)
	if len(p) != 2 || p[1].From != 2 {
		t.Fatalf("tie-break must route via node 2: %v", p)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(seed%13+13)%13
		g := Random(n, 3, 2*n, seed)
		s := g.MarshalString()
		h, err := UnmarshalString(s)
		if err != nil {
			return false
		}
		return g.Equal(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		"",
		"not-a-header\nnodes 2 delta 2\n",
		"topomap-graph v1\n",
		"topomap-graph v1\nnodes -1 delta 2\n",
		"topomap-graph v1\nnodes 2 delta 2\nedge 0 1 0 1\n",      // self-loop
		"topomap-graph v1\nnodes 2 delta 2\nedge 0 9 1 1\n",      // port range
		"topomap-graph v1\nnodes 2 delta 2\nedge zero 1 one 1\n", // parse
	}
	for i, s := range cases {
		if _, err := UnmarshalString(s); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestUnmarshalSkipsComments(t *testing.T) {
	s := "# generated\ntopomap-graph v1\n\nnodes 2 delta 2\n# wires\nedge 0 1 1 1\nedge 1 1 0 1\n"
	g, err := UnmarshalString(s)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestDOTOutput(t *testing.T) {
	g := TwoCycle()
	dot := g.DOT("demo", 0)
	for _, want := range []string{"digraph", "0 -> 1", "1 -> 0", "root"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestBuildUnknownFamily(t *testing.T) {
	if _, err := Build("nope", 5, 1); err == nil {
		t.Fatal("unknown family must error")
	}
}

func TestDeBruijnNoSelfLoops(t *testing.T) {
	g := DeBruijn(2, 4)
	for _, e := range g.Edges() {
		if e.From == e.To {
			t.Fatalf("self-loop survived the rewire: %v", e)
		}
	}
	if !g.StronglyConnected() {
		t.Fatal("rewired de Bruijn must stay strongly connected")
	}
}

func TestHypercubeStructure(t *testing.T) {
	g := Hypercube(3)
	if g.N() != 8 || g.NumEdges() != 24 {
		t.Fatalf("hypercube-3: N=%d E=%d", g.N(), g.NumEdges())
	}
	for v := 0; v < 8; v++ {
		if g.OutDegree(v) != 3 || g.InDegree(v) != 3 {
			t.Fatal("hypercube degrees wrong")
		}
	}
}
