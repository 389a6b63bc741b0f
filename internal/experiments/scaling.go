package experiments

import (
	"fmt"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// E2GTDScaling reproduces Lemma 4.4: the Global Topology Determination
// Algorithm terminates in time O(N·D). The ticks/(N·D) ratio staying
// bounded (and roughly flat per family) as N grows is the measurable form
// of the claim.
func E2GTDScaling(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "GTD running time vs N·D",
		Claim:   "Lemma 4.4: the protocol terminates in O(N·D) global clock ticks",
		Columns: []string{"family", "N", "D", "edges", "ticks", "ticks/(N·D)"},
	}
	type c struct {
		fam   graph.Family
		sizes []int
	}
	cases := []c{
		{graph.FamilyRing, []int{8, 16, 32}},
		{graph.FamilyBiRing, []int{9, 17, 33}},
		{graph.FamilyTorus, []int{16, 36, 64}},
		{graph.FamilyKautz, []int{12, 24, 48}},
		{graph.FamilyHypercube, []int{8, 16, 32}},
	}
	if s == Full {
		cases = []c{
			{graph.FamilyRing, []int{8, 16, 32, 64, 96}},
			{graph.FamilyBiRing, []int{9, 17, 33, 65, 97}},
			{graph.FamilyTorus, []int{16, 36, 64, 100, 144}},
			{graph.FamilyKautz, []int{12, 24, 48, 96, 192}},
			{graph.FamilyHypercube, []int{8, 16, 32, 64, 128}},
		}
	}
	sess := newSweepSession(gtd.DefaultConfig())
	for _, cs := range cases {
		for _, n := range cs.sizes {
			g, err := graph.Build(cs.fam, n, 3)
			if err != nil {
				return nil, err
			}
			r, err := runSessionGTD(sess, g, 0)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", cs.fam, n, err)
			}
			if !r.exact {
				return nil, fmt.Errorf("%s n=%d: inexact map", cs.fam, n)
			}
			nd := g.N() * g.Diameter()
			t.Rows = append(t.Rows, []string{string(cs.fam), fmtI(g.N()), fmtI(g.Diameter()),
				fmtI(g.NumEdges()), fmtI(r.ticks), fmtF(float64(r.ticks) / float64(nd))})
		}
	}
	t.Notes = append(t.Notes,
		"the ratio column staying bounded as N grows is the O(N·D) claim; the constant varies with edge density (each edge costs one RCA)")
	return t, nil
}

// E3RCACost reproduces Lemma 4.3: each execution of the RCA takes O(D) —
// more precisely, time proportional to d(A, root) + d(root, A).
func E3RCACost(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Standalone RCA cost vs loop length",
		Claim:   "Lemma 4.3: each RCA by processor A takes time O(d(A,root)+d(root,A)) = O(D)",
		Columns: []string{"family", "N", "D", "A", "loop", "ticks", "ticks/loop"},
	}
	type pick struct {
		fam  graph.Family
		n    int
		from int
	}
	picks := []pick{
		{graph.FamilyRing, 8, 4}, {graph.FamilyRing, 16, 8}, {graph.FamilyRing, 32, 16},
		{graph.FamilyTorus, 16, 10}, {graph.FamilyTorus, 36, 21},
		{graph.FamilyKautz, 12, 7}, {graph.FamilyKautz, 24, 13},
	}
	if s == Full {
		picks = append(picks,
			pick{graph.FamilyRing, 64, 32}, pick{graph.FamilyRing, 128, 64},
			pick{graph.FamilyTorus, 64, 37}, pick{graph.FamilyTorus, 100, 57},
			pick{graph.FamilyKautz, 48, 25}, pick{graph.FamilyKautz, 96, 51})
	}
	for _, p := range picks {
		g, err := graph.Build(p.fam, p.n, 3)
		if err != nil {
			return nil, err
		}
		from := p.from % g.N()
		if from == 0 {
			from = 1
		}
		ticks, err := standaloneRCA(g, 0, from)
		if err != nil {
			return nil, fmt.Errorf("%s n=%d from=%d: %w", p.fam, p.n, from, err)
		}
		loop := g.Distance(from, 0) + g.Distance(0, from)
		t.Rows = append(t.Rows, []string{string(p.fam), fmtI(g.N()), fmtI(g.Diameter()),
			fmtI(from), fmtI(loop), fmtI(ticks), fmtF(float64(ticks) / float64(loop))})
	}
	t.Notes = append(t.Notes, "ticks counts start → full cleanup (network quiescent); the ratio is the per-hop constant")
	return t, nil
}

// standaloneRCA runs one RCA from the given node and returns ticks to
// quiescence.
func standaloneRCA(g *graph.Graph, root, from int) (int, error) {
	cfg := gtd.DefaultConfig()
	cfg.PassiveRoot = true
	eng := sim.New(g, sim.Options{
		Root:              root,
		MaxTicks:          16_000_000,
		StopWhenQuiescent: true,
	}, gtd.NewFactory(cfg))
	err := eng.Automaton(from).(*gtd.Processor).StartRCA(wire.LoopToken{Type: wire.LoopForward, Out: 1, In: 1})
	if err != nil {
		return 0, err
	}
	stats, err := eng.Run()
	if err != nil {
		return 0, err
	}
	if eng.Automaton(from).(*gtd.Processor).RCACount() != 1 {
		return 0, fmt.Errorf("RCA did not complete")
	}
	return stats.Ticks, nil
}

// E4BCACost reproduces the §4.1 claim: each use of the BCA runs in O(D).
func E4BCACost(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Standalone BCA cost vs reversed-edge loop length",
		Claim:   "§4.1: sending a message backwards through an edge costs O(D)",
		Columns: []string{"family", "N", "D", "loop", "ticks", "ticks/loop"},
	}
	sizes := []int{4, 8, 16, 32}
	if s == Full {
		sizes = append(sizes, 64, 128, 256)
	}
	for _, n := range sizes {
		// Directed ring: sending backwards across edge (n-1 → 0) needs
		// the full cycle: loop length n.
		g := graph.Ring(n)
		ticks, err := standaloneBCA(g, 0, 1)
		if err != nil {
			return nil, fmt.Errorf("ring n=%d: %w", n, err)
		}
		t.Rows = append(t.Rows, []string{"ring", fmtI(n), fmtI(g.Diameter()),
			fmtI(n), fmtI(ticks), fmtF(float64(ticks) / float64(n))})
	}
	for _, n := range []int{16, 36, 64} {
		g, err := graph.Build(graph.FamilyTorus, n, 3)
		if err != nil {
			return nil, err
		}
		// Node 0's in-port 1 is fed by its row predecessor.
		ep, _ := g.InEndpoint(0, 1)
		loop := g.Distance(0, ep.Node) + 1
		ticks, err := standaloneBCA(g, 0, 1)
		if err != nil {
			return nil, fmt.Errorf("torus n=%d: %w", n, err)
		}
		t.Rows = append(t.Rows, []string{"torus", fmtI(g.N()), fmtI(g.Diameter()),
			fmtI(loop), fmtI(ticks), fmtF(float64(ticks) / float64(loop))})
	}
	t.Notes = append(t.Notes, "loop = d(B, A) + 1, the marked loop the BCA builds; ticks counts start → quiescence")
	return t, nil
}

// standaloneBCA runs one BCA at node from through inPort and returns ticks
// to quiescence.
func standaloneBCA(g *graph.Graph, from, inPort int) (int, error) {
	cfg := gtd.DefaultConfig()
	cfg.PassiveRoot = true
	eng := sim.New(g, sim.Options{
		Root:              0,
		MaxTicks:          16_000_000,
		StopWhenQuiescent: true,
	}, gtd.NewFactory(cfg))
	if err := eng.Automaton(from).(*gtd.Processor).StartBCA(inPort, wire.PayloadPing); err != nil {
		return 0, err
	}
	stats, err := eng.Run()
	if err != nil {
		return 0, err
	}
	src, _ := g.InEndpoint(from, inPort)
	if _, n := eng.Automaton(src.Node).(*gtd.Processor).DeliveredPayload(); n != 1 {
		return 0, fmt.Errorf("payload not delivered")
	}
	return stats.Ticks, nil
}

// E11DiameterFamilies shows the D-dependence of the O(N·D) bound: at
// comparable N, the measured time tracks each family's diameter shape
// (Θ(N) for the ring, Θ(√N) for the torus, Θ(log N) for Kautz).
func E11DiameterFamilies(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Diameter dependence across families (series)",
		Claim:   "Lemma 4.4's D factor: families with smaller diameter map proportionally faster",
		Columns: []string{"N≈", "ring D", "ring ticks", "torus D", "torus ticks", "kautz D", "kautz ticks"},
	}
	sizes := []int{12, 24, 48}
	if s == Full {
		sizes = append(sizes, 96, 144)
	}
	sess := newSweepSession(gtd.DefaultConfig())
	for _, n := range sizes {
		row := []string{fmtI(n)}
		for _, fam := range []graph.Family{graph.FamilyRing, graph.FamilyTorus, graph.FamilyKautz} {
			g, err := graph.Build(fam, n, 3)
			if err != nil {
				return nil, err
			}
			r, err := runSessionGTD(sess, g, 0)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", fam, n, err)
			}
			row = append(row, fmtI(g.Diameter()), fmtI(r.ticks))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "the same ladder of N with three diameter regimes; ticks ≈ c·N·D with per-family constants")
	return t, nil
}
