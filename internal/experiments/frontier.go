package experiments

import (
	"fmt"

	"topomap/internal/graph"
	"topomap/internal/sim"
)

// E14FrontierScheduler validates and quantifies the engine's sparse
// frontier scheduler against the dense reference path (Naive mode): both
// must produce bit-identical root transcripts, tick/message/activity
// statistics, and failure behaviour, while the sparse scheduler's per-tick
// step-loop iterations track the active set instead of N. Large cases run
// both modes over a bounded tick window (the protocol phase is identical
// tick for tick, so the window comparison is exact); "full" rows run to
// termination.
func E14FrontierScheduler(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Sparse frontier scheduler vs dense sweep (engineering)",
		Claim:   "substrate: per-pulse activity is bounded by transaction structure, not network size (§2, Lemma 4.4), so frontier scheduling makes a tick cost O(active) — ≥10× fewer step-loop iterations than the dense sweep at N=1024 — without changing a single observable bit",
		Columns: []string{"family", "N", "window", "dense ms", "sparse ms", "speedup", "dense it/t", "sparse it/t", "it ratio", "identical"},
	}
	type c struct {
		fam    graph.Family
		n      int
		window int // 0 = run to termination
	}
	cases := []c{
		{graph.FamilyRing, 64, 0},
		{graph.FamilyTorus, 100, 0},
		{graph.FamilyKautz, 24, 0},
		{graph.FamilyRing, 256, 40_000},
		// 60k ticks is past the first RCA's full-ring flood, where the
		// per-tick active set settles to its steady value (~95 of 1024).
		{graph.FamilyRing, 1024, 60_000},
	}
	if s == Full {
		cases = append(cases,
			c{graph.FamilyRing, 256, 0},
			c{graph.FamilyTorus, 256, 0},
			c{graph.FamilyRing, 1024, 200_000})
	}
	for _, cs := range cases {
		g, err := graph.Build(cs.fam, cs.n, 9)
		if err != nil {
			return nil, err
		}
		dense, err := runFrontierMode(g, true, cs.window)
		if err != nil {
			return nil, fmt.Errorf("%s N=%d dense: %w", cs.fam, g.N(), err)
		}
		sparse, err := runFrontierMode(g, false, cs.window)
		if err != nil {
			return nil, fmt.Errorf("%s N=%d sparse: %w", cs.fam, g.N(), err)
		}
		identical := "yes"
		if dense.fingerprint != sparse.fingerprint {
			identical = "NO"
		}
		window := "full"
		if cs.window > 0 {
			window = fmtI(cs.window)
		}
		denseIt := float64(g.N()) // the dense sweep examines every node every tick
		sparseIt := float64(sparse.stats.StepCalls) / float64(sparse.stats.Ticks)
		t.Rows = append(t.Rows, []string{
			string(cs.fam), fmtI(g.N()), window,
			fmtF(dense.wall.Seconds() * 1000), fmtF(sparse.wall.Seconds() * 1000),
			fmtF(dense.wall.Seconds() / sparse.wall.Seconds()),
			fmtF(denseIt), fmtF(sparseIt), fmtF(denseIt / sparseIt),
			identical,
		})
	}
	t.Notes = append(t.Notes,
		"identical compares an FNV-1a fingerprint of the full root transcript plus ticks, messages, peak-active, and the failure outcome",
		"it/t is step-loop iterations per tick: the dense sweep examines all N nodes, the frontier scheduler only the active set (its iterations equal its Step calls)",
		"windowed rows bound both runs by the same tick budget; both abort identically, so the comparison stays exact",
		hostNote())
	return t, nil
}

// runFrontierMode executes the protocol with the given scheduling
// substrate on the shared fingerprint harness. StepCalls is excluded from
// the fingerprint: the dense sweep steps every node by definition, so its
// step count differs from the frontier scheduler's by design.
func runFrontierMode(g *graph.Graph, naive bool, window int) (*fingerprintRun, error) {
	return runFingerprinted(g, sim.Options{
		Naive:   naive,
		Workers: Workers, // wall-clock knob only; 0 = GOMAXPROCS
	}, window, false, (*sim.Engine).Run)
}
