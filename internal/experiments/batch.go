package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"topomap"
	"topomap/internal/graph"
)

// E13BatchThroughput measures the run-level concurrency layer: a corpus of
// graphs mapped through topomap.MapBatch over a bounded pool of reusable
// sessions, swept over the pool size. Three claims are on the line:
//
//  1. Reuse kills allocation: a session's steady state recycles the engine,
//     automata, wire buffers, and mapper, so allocs/run collapses versus
//     fresh per-run topomap.Map (≥10× on this corpus; the "map (fresh)"
//     row is the baseline).
//  2. Batch results are deterministic: every pool size reproduces the
//     fresh-Map reconstruction and tick count bit-for-bit, in input order
//     (the exact and identical columns).
//  3. Throughput scales with the pool on multi-core hardware (on a single
//     core the sweep collapses to overhead measurement).
//
// A batch scales across runs: each run steps on one goroutine.
func E13BatchThroughput(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Batch mapping throughput over reusable sessions",
		Claim:   "engineering: reusable sessions drop steady-state allocs/run ≥10× vs fresh Map, and MapBatch scales graphs/s with the session-pool size without changing a result bit",
		Columns: []string{"mode", "sessions", "graphs", "wall ms", "graphs/s", "speedup", "allocs/run", "exact", "identical"},
	}
	corpus, err := batchCorpus(s)
	if err != nil {
		return nil, err
	}
	opts := topomap.Options{}

	// Baseline: fresh engine, automata, and mapper per run (topomap.Map).
	var baseline []*topomap.Result
	freshWall, freshAllocs, err := measure(func() error {
		baseline = baseline[:0]
		for i, g := range corpus {
			res, err := topomap.Map(g, opts)
			if err != nil {
				return fmt.Errorf("fresh map graph %d: %w", i, err)
			}
			baseline = append(baseline, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	exact := 0
	for i, res := range baseline {
		if topomap.Verify(corpus[i], 0, res.Topology) {
			exact++
		}
	}
	n := len(corpus)
	t.Rows = append(t.Rows, []string{"map (fresh)", "1", fmtI(n),
		fmtF(float64(freshWall.Milliseconds())),
		fmtF(float64(n) / freshWall.Seconds()),
		"", fmtI(int(freshAllocs) / n),
		fmt.Sprintf("%d/%d", exact, n), "yes"})

	pools := []int{1, 2, 4, 8}
	if Sessions > 0 {
		pools = pools[:0]
		for _, p := range []int{1, 2, 4, 8} {
			if p <= Sessions {
				pools = append(pools, p)
			}
		}
	}
	var base float64
	for _, pool := range pools {
		var items []topomap.BatchItem
		wall, allocs, err := measure(func() error {
			var err error
			items, err = topomap.MapBatch(context.Background(), corpus,
				topomap.BatchOptions{Options: opts, Sessions: pool, StopOnError: true})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("batch sessions=%d: %w", pool, err)
		}
		exact, identical := 0, 0
		for i, it := range items {
			if it.Err != nil {
				return nil, fmt.Errorf("batch sessions=%d graph %d: %w", pool, i, it.Err)
			}
			if topomap.Verify(corpus[i], 0, it.Result.Topology) {
				exact++
			}
			if it.Result.Ticks == baseline[i].Ticks &&
				it.Result.Messages == baseline[i].Messages &&
				it.Result.Topology.Equal(baseline[i].Topology) {
				identical++
			}
		}
		ident := "yes"
		if identical != n {
			ident = fmt.Sprintf("NO (%d/%d)", identical, n)
		}
		secs := wall.Seconds()
		if pool == 1 {
			base = secs
		}
		t.Rows = append(t.Rows, []string{"batch", fmtI(pool), fmtI(n),
			fmtF(float64(wall.Milliseconds())),
			fmtF(float64(n) / secs),
			fmtF(base / secs),
			fmtI(int(allocs) / n),
			fmt.Sprintf("%d/%d", exact, n), ident})
	}
	t.Notes = append(t.Notes,
		"allocs/run is the process-wide heap-allocation count divided by corpus size; the fresh row pays engine+automata+mapper construction every run, batch rows only on each session's first",
		"identical = reconstruction, ticks, and messages equal the fresh-Map baseline per graph (determinism across reuse and pool size)",
		"per-run engine workers pinned to 1; speedup is batch sessions=1 wall / this row's wall, bounded by physical cores (override the sweep with topobench -sessions)")
	return t, nil
}

// batchCorpus builds the mixed-family graph corpus the batch maps.
func batchCorpus(s Scale) ([]*topomap.Graph, error) {
	type c struct {
		fam  graph.Family
		n    int
		seed int64
	}
	cases := []c{
		{graph.FamilyRing, 16, 1}, {graph.FamilyRing, 24, 2},
		{graph.FamilyBiRing, 9, 1}, {graph.FamilyBiRing, 15, 2},
		{graph.FamilyTorus, 16, 1}, {graph.FamilyTorus, 25, 2}, {graph.FamilyTorus, 36, 3},
		{graph.FamilyKautz, 12, 1}, {graph.FamilyKautz, 24, 2},
		{graph.FamilyDeBruijn, 16, 1},
		{graph.FamilyHypercube, 16, 1},
		{graph.FamilyRandom, 18, 5}, {graph.FamilyRandom, 24, 7}, {graph.FamilyRandom, 30, 9},
		{graph.FamilyTreeLoop, 15, 3},
		{graph.FamilyLine, 12, 1},
	}
	if s == Full {
		cases = append(cases,
			c{graph.FamilyRing, 64, 3}, c{graph.FamilyTorus, 64, 4},
			c{graph.FamilyTorus, 100, 5}, c{graph.FamilyKautz, 48, 3},
			c{graph.FamilyKautz, 96, 4}, c{graph.FamilyRandom, 48, 11},
			c{graph.FamilyRandom, 64, 13}, c{graph.FamilyHypercube, 32, 2})
		// Repeat the corpus so each session maps many graphs per pool
		// slot and the steady state dominates.
		cases = append(cases, cases...)
	}
	out := make([]*topomap.Graph, 0, len(cases))
	for _, cs := range cases {
		g, err := graph.Build(cs.fam, cs.n, cs.seed)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// measure times fn and reports the heap allocations it performed
// (process-wide malloc count delta, so concurrent allocations are included).
func measure(fn func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, err
}
