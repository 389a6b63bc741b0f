package experiments

import (
	"fmt"
	"time"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
)

// E9Throughput measures the simulator substrate itself: wall-clock
// throughput in processor-steps per second while running the full protocol,
// swept over the engine worker count (1 = the sequential path, then
// doublings up to the harness cap). It quantifies the engine's activity
// tracking (idle processors cost nothing) and the parallel tick fan-out
// (on multi-core hardware the sharded engine beats workers=1; on a single
// core the sweep collapses to one row per case). Determinism makes the
// ticks and steps columns identical across worker counts — only the
// wall-clock columns may differ.
func E9Throughput(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Simulator throughput (engineering)",
		Claim:   "substrate: the lockstep engine sustains millions of processor-steps per second, and the sharded parallel tick scales it across cores without changing a single transcript bit",
		Columns: []string{"family", "N", "workers", "ticks", "steps", "steps/tick", "wall ms", "steps/s (M)", "speedup"},
	}
	type c struct {
		fam graph.Family
		n   int
	}
	cases := []c{{graph.FamilyTorus, 36}, {graph.FamilyKautz, 24}, {graph.FamilyTorus, 100}}
	if s == Full {
		cases = append(cases, c{graph.FamilyKautz, 96},
			c{graph.FamilyRing, 64}, c{graph.FamilyTorus, 256})
	}
	for _, cs := range cases {
		g, err := graph.Build(cs.fam, cs.n, 9)
		if err != nil {
			return nil, err
		}
		var base float64
		var baseTicks int
		var baseSteps int64
		for _, workers := range workerSweep() {
			m := mapper.New(g.Delta())
			// ParallelThreshold 1 forces every non-empty tick
			// through the parallel path: the sweep measures the
			// sharded engine itself, not the dispatch rule, which
			// would run these narrow frontiers sequentially.
			eng := sim.New(g, sim.Options{
				Root:              0,
				MaxTicks:          64_000_000,
				Workers:           workers,
				ParallelThreshold: 1,
				Transcript:        m.Process,
			}, gtd.NewFactory(gtd.DefaultConfig()))
			start := time.Now()
			stats, err := eng.Run()
			if err != nil {
				return nil, fmt.Errorf("%s workers=%d: %w", cs.fam, workers, err)
			}
			el := time.Since(start)
			if _, err := m.Finish(); err != nil {
				return nil, err
			}
			secs := el.Seconds()
			if workers == 1 {
				base, baseTicks, baseSteps = secs, stats.Ticks, stats.StepCalls
			} else if stats.Ticks != baseTicks || stats.StepCalls != baseSteps {
				return nil, fmt.Errorf("%s workers=%d: run diverged from sequential (%d/%d ticks, %d/%d steps)",
					cs.fam, workers, stats.Ticks, baseTicks, stats.StepCalls, baseSteps)
			}
			t.Rows = append(t.Rows, []string{string(cs.fam), fmtI(g.N()), fmtI(workers),
				fmtI(stats.Ticks), fmtI64(stats.StepCalls),
				fmtF(float64(stats.StepCalls) / float64(stats.Ticks)),
				fmtF(float64(el.Milliseconds())),
				fmtF(float64(stats.StepCalls) / secs / 1e6),
				fmtF(base / secs)})
		}
	}
	t.Notes = append(t.Notes,
		"steps counts automaton Step calls actually executed (idle processors are skipped)",
		"steps/tick is the frontier scheduler's per-tick work; compare against N for the dense sweep's cost (E14 makes the comparison explicit)",
		"speedup is sequential wall time / this row's wall time on the identical run; the sweep is bounded by GOMAXPROCS (override with topobench -workers)")
	return t, nil
}
