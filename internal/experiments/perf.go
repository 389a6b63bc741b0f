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
// one row per case. It quantifies the engine's activity tracking (idle
// processors cost nothing); the ticks and steps columns are deterministic,
// only the wall-clock columns vary run to run.
func E9Throughput(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Simulator throughput (engineering)",
		Claim:   "substrate: the lockstep engine sustains millions of processor-steps per second",
		Columns: []string{"family", "N", "ticks", "steps", "steps/tick", "wall ms", "steps/s (M)"},
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
		m := mapper.New(g.Delta())
		eng := sim.New(g, sim.Options{
			MaxTicks:   64_000_000,
			Transcript: m.Process,
		}, gtd.NewFactory(gtd.DefaultConfig()))
		start := time.Now()
		stats, err := eng.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cs.fam, err)
		}
		el := time.Since(start)
		if _, err := m.Finish(); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{string(cs.fam), fmtI(g.N()),
			fmtI(stats.Ticks), fmtI64(stats.StepCalls),
			fmtF(float64(stats.StepCalls) / float64(stats.Ticks)),
			fmtF(float64(el.Milliseconds())),
			fmtF(float64(stats.StepCalls) / el.Seconds() / 1e6)})
	}
	t.Notes = append(t.Notes,
		"steps counts automaton Step calls actually executed (idle processors are skipped)",
		"steps/tick is the frontier scheduler's per-tick work; compare against N for the dense sweep's cost (E14 makes the comparison explicit)")
	return t, nil
}
