package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/lowerbound"
	"topomap/internal/mapper"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// E5LowerBound reproduces §5: Lemma 5.1's counting family gives
// G(N) ≥ N^(CN) distinct small-diameter topologies, Lemma 5.2 bounds the
// root's transcripts by |I|^(δ·t), and Theorem 5.1 concludes T(N) =
// Ω(N log N). The table compares the implied lower bound with the
// protocol's measured time on the same family, and with N·ln N on a
// logarithmic-diameter family (Kautz) where the protocol's O(N·D) =
// O(N log N) makes it asymptotically optimal.
func E5LowerBound(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Ω(N log N) lower bound vs measured protocol time",
		Claim:   "Theorem 5.1: any GTD algorithm needs Ω(N log N) ticks; the protocol is asymptotically optimal on small-diameter networks",
		Columns: []string{"height", "N", "D≤", "ln G(N)", "T_lb(ticks)", "N·lnN", "measured", "meas/N·lnN"},
	}
	heights := []int{2, 3, 4}
	analytic := []int{6, 8, 10, 12, 16}
	if s == Full {
		heights = []int{2, 3, 4, 5}
		analytic = []int{6, 8, 10, 12, 16, 20}
	}
	const delta = 4 // the TreeLoop family's degree bound
	alpha := wire.AlphabetSize(delta)
	for _, h := range heights {
		f := lowerbound.TreeLoop(h)
		g := graph.TreeLoop(h, graph.RandomPermutation(f.Leaves, int64(h)))
		r, err := runGTD(g, 0, gtd.DefaultConfig(), nil, nil)
		if err != nil {
			return nil, fmt.Errorf("treeloop h=%d: %w", h, err)
		}
		if !r.exact {
			return nil, fmt.Errorf("treeloop h=%d: inexact map", h)
		}
		tlb := lowerbound.MinTicks(f.LogTopologies, alpha, delta)
		nlogn := lowerbound.NLogN(f.N)
		t.Rows = append(t.Rows, []string{fmtI(h), fmtI(f.N), fmtI(f.Diameter),
			fmtF(f.LogTopologies), fmtF(tlb), fmtF(nlogn), fmtI(r.ticks),
			fmtF(float64(r.ticks) / nlogn)})
	}
	for _, h := range analytic {
		f := lowerbound.TreeLoop(h)
		tlb := lowerbound.MinTicks(f.LogTopologies, alpha, delta)
		nlogn := lowerbound.NLogN(f.N)
		t.Rows = append(t.Rows, []string{fmtI(h), fmtI(f.N), fmtI(f.Diameter),
			fmtF(f.LogTopologies), fmtF(tlb), fmtF(nlogn), "-", "-"})
	}
	t.Notes = append(t.Notes,
		"ln G(N) = ln((ℓ-1)!) - (ℓ-1)·ln2: loop arrangements of the ℓ bottom-level nodes, discounted by tree automorphisms",
		fmt.Sprintf("T_lb = ln G / (δ·ln|I|) with δ=%d, |I|=%.3g (Lemma 5.2 inverted)", delta, alpha),
		"T_lb/(N·lnN) tends to a positive constant: the Ω(N log N) shape; measured/N·lnN bounded on this bounded-D family = asymptotic optimality")
	return t, nil
}

// E12Pigeonhole validates Lemma 5.2's premise on an exhaustive small world:
// over every strongly-connected port-canonical digraph on ≤ maxN nodes with
// δ = 2, distinct anchored topologies always produce distinct root
// transcripts, and their count respects the |I|^(δ·t) ceiling.
func E12Pigeonhole(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Transcripts distinguish topologies (exhaustive small world)",
		Claim:   "Lemma 5.2 / Theorem 5.1 premise: distinct topologies must yield distinct root transcripts",
		Columns: []string{"n", "graphs", "distinct transcripts", "collisions", "max ticks", "ln(graphs)", "δ·T·ln|I|"},
	}
	maxN := 4
	if s == Quick {
		maxN = 3
	}
	for n := 2; n <= maxN; n++ {
		graphs := enumerateStrong(n)
		seen := map[[32]byte]string{}
		collisions := 0
		maxTicks := 0
		for _, g := range graphs {
			h, ticks, err := transcriptHash(g)
			if err != nil {
				return nil, fmt.Errorf("n=%d: %w", n, err)
			}
			if ticks > maxTicks {
				maxTicks = ticks
			}
			can := g.CanonicalFrom(0)
			if prev, ok := seen[h]; ok && prev != can {
				collisions++
			}
			seen[h] = can
		}
		lnG := math.Log(float64(len(graphs)))
		ceiling := lowerbound.TranscriptsAfter(maxTicks, wire.AlphabetSize(2), 2)
		t.Rows = append(t.Rows, []string{fmtI(n), fmtI(len(graphs)), fmtI(len(seen)),
			fmtI(collisions), fmtI(maxTicks), fmtF(lnG), fmtF(ceiling)})
	}
	t.Notes = append(t.Notes,
		"graphs = all strongly connected simple digraphs with in/out degree ≤ 2, no self-loops, canonical ports, deduplicated by root-anchored canonical form",
		"collisions must be 0 (pigeonhole premise); ln(graphs) ≤ δ·T·ln|I| is Lemma 5.2's ceiling")
	return t, nil
}

// enumerateStrong lists every strongly connected simple digraph on n nodes
// with in/out degree ≤ 2 and no self-loops, ports assigned canonically
// (ascending by peer), deduplicated by anchored canonical form.
func enumerateStrong(n int) []*graph.Graph {
	type pair = [2]int
	var arcs []pair
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				arcs = append(arcs, pair{u, v})
			}
		}
	}
	var out []*graph.Graph
	seen := map[string]bool{}
	total := 1 << len(arcs)
	for mask := 0; mask < total; mask++ {
		outDeg := make([]int, n)
		inDeg := make([]int, n)
		ok := true
		for i, a := range arcs {
			if mask&(1<<i) != 0 {
				outDeg[a[0]]++
				inDeg[a[1]]++
				if outDeg[a[0]] > 2 || inDeg[a[1]] > 2 {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		for v := 0; v < n; v++ {
			if outDeg[v] == 0 || inDeg[v] == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		g := graph.New(n, 2)
		for i, a := range arcs {
			if mask&(1<<i) != 0 {
				if _, _, err := g.ConnectNext(a[0], a[1]); err != nil {
					ok = false
					break
				}
			}
		}
		if !ok || !g.StronglyConnected() {
			continue
		}
		can := g.CanonicalFrom(0)
		if seen[can] {
			continue
		}
		seen[can] = true
		out = append(out, g)
	}
	return out
}

// transcriptHash runs GTD and hashes the root transcript.
func transcriptHash(g *graph.Graph) ([32]byte, int, error) {
	h := sha256.New()
	m := mapper.New(g.Delta())
	eng := sim.New(g, sim.Options{
		Root:     0,
		MaxTicks: 8_000_000,
		Transcript: func(e sim.TranscriptEntry) {
			m.Process(e)
			fmt.Fprintf(h, "t%d", e.Tick)
			for p, msg := range e.In {
				if !msg.IsBlank() {
					fmt.Fprintf(h, "|i%d:%s", p, msg)
				}
			}
			for p, msg := range e.Out {
				if !msg.IsBlank() {
					fmt.Fprintf(h, "|o%d:%s", p, msg)
				}
			}
		},
	}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := eng.Run()
	if err != nil {
		return [32]byte{}, 0, err
	}
	if _, err := m.Finish(); err != nil {
		return [32]byte{}, 0, err
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, stats.Ticks, nil
}
