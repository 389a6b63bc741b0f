package sim_test

import (
	"testing"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
)

// benchTickRing1024 measures the per-tick cost of one scheduler mode on a
// 1024-node ring running the full protocol: one benchmark op = one global
// clock tick. The steps/tick metric is the scheduler's per-tick step-loop
// work — the dense sweep pays N=1024 every tick, the sparse frontier only
// the active set. Activity is phased (snake floods alternate with long
// token walks), so short -benchtime slices wander; from ~20000x the
// average settles near the long-run ~95 steps/tick, the ≥10× drop that
// E14 and TestFrontierSparseIterationsRing1024 pin exactly.
func benchTickRing1024(b *testing.B, naive bool) {
	g := graph.Ring(1024)
	eng := sim.New(g, sim.Options{
		MaxTicks: 1 << 30, // far beyond any b.N; the run never finishes here
		Naive:    naive,
	}, gtd.NewFactory(gtd.DefaultConfig()))
	// Warm past the first RCA's full-ring flood so b.N ticks measure the
	// steady state rather than the atypically hot opening phase.
	for eng.Tick() < 60_000 {
		if _, err := eng.RunOne(); err != nil {
			b.Fatal(err)
		}
	}
	start := eng.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunOne(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	end := eng.Stats()
	ticks := end.Ticks - start.Ticks
	if ticks > 0 {
		b.ReportMetric(float64(end.StepCalls-start.StepCalls)/float64(ticks), "steps/tick")
		if naive {
			b.ReportMetric(float64(g.N()), "iters/tick")
		} else {
			b.ReportMetric(float64(end.StepCalls-start.StepCalls)/float64(ticks), "iters/tick")
		}
	}
}

// BenchmarkSparseTickRing1024 is the frontier scheduler's per-tick cost.
func BenchmarkSparseTickRing1024(b *testing.B) { benchTickRing1024(b, false) }

// BenchmarkDenseTickRing1024 is the dense reference sweep's per-tick cost.
func BenchmarkDenseTickRing1024(b *testing.B) { benchTickRing1024(b, true) }
