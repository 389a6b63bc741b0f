package topomap_test

import (
	"context"
	"fmt"
	"testing"

	"topomap"
	"topomap/internal/experiments"
)

// Experiment benchmarks: one per table/series of DESIGN.md §4. Each runs
// the experiment harness at Quick scale per iteration; cmd/topobench -full
// regenerates the published tables. Custom metrics surface the headline
// number of each experiment.

func benchExperiment(b *testing.B, id string) {
	run, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkE1Correctness(b *testing.B)      { benchExperiment(b, "e1") }
func BenchmarkE2GTDScaling(b *testing.B)       { benchExperiment(b, "e2") }
func BenchmarkE3RCACost(b *testing.B)          { benchExperiment(b, "e3") }
func BenchmarkE4BCACost(b *testing.B)          { benchExperiment(b, "e4") }
func BenchmarkE5LowerBound(b *testing.B)       { benchExperiment(b, "e5") }
func BenchmarkE6Undisturbed(b *testing.B)      { benchExperiment(b, "e6") }
func BenchmarkE7CleanupSlack(b *testing.B)     { benchExperiment(b, "e7") }
func BenchmarkE8Baseline(b *testing.B)         { benchExperiment(b, "e8") }
func BenchmarkE9EngineThroughput(b *testing.B) { benchExperiment(b, "e9") }
func BenchmarkE10SpeedAblation(b *testing.B)   { benchExperiment(b, "e10") }
func BenchmarkE11Families(b *testing.B)        { benchExperiment(b, "e11") }
func BenchmarkE12Pigeonhole(b *testing.B)      { benchExperiment(b, "e12") }
func BenchmarkE13Batch(b *testing.B)           { benchExperiment(b, "e13") }
func BenchmarkE14Frontier(b *testing.B)        { benchExperiment(b, "e14") }
func BenchmarkE16Serve(b *testing.B)           { benchExperiment(b, "e16") }
func BenchmarkE17Hostile(b *testing.B)         { benchExperiment(b, "e17") }
func BenchmarkE18Scale(b *testing.B)           { benchExperiment(b, "e18") }
func BenchmarkE19CachedServe(b *testing.B)     { benchExperiment(b, "e19") }
func BenchmarkE20WireCodec(b *testing.B)       { benchExperiment(b, "e20") }
func BenchmarkE21DynamicRemap(b *testing.B)    { benchExperiment(b, "e21") }

// Session-reuse benchmarks: the fresh/reused pair quantifies the session
// refactor's allocation claim (run with -benchmem; the reused steady state
// must allocate ≥10× less than fresh Map on the 64-node ring — it is a
// handful of allocations, all in the returned Result and reconstruction).

func BenchmarkMapFreshRing64(b *testing.B) {
	g := topomap.Ring(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topomap.Map(g, topomap.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapSessionRing64(b *testing.B) {
	g := topomap.Ring(64)
	s := topomap.NewSession(topomap.Options{})
	if _, err := s.Map(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Map(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapBatchTorus measures batch throughput per pool size on one
// op = a 16-graph corpus.
func BenchmarkMapBatchTorus(b *testing.B) {
	for _, sessions := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("sessions%d", sessions), func(b *testing.B) {
			graphs := make([]*topomap.Graph, 16)
			for i := range graphs {
				graphs[i] = topomap.Torus(4, 5)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items, err := topomap.MapBatch(context.Background(), graphs,
					topomap.BatchOptions{Sessions: sessions})
				if err != nil {
					b.Fatal(err)
				}
				for _, it := range items {
					if it.Err != nil {
						b.Fatal(it.Err)
					}
				}
			}
			b.ReportMetric(float64(len(graphs)), "graphs/op")
		})
	}
}

// Micro-benchmarks of the public API across families and sizes: the cost of
// one complete GTD run, with ticks and ticks/(N·D) reported.

func benchMap(b *testing.B, fam topomap.Family, n int) {
	g, err := topomap.Build(fam, n, 3)
	if err != nil {
		b.Fatal(err)
	}
	d := g.Diameter()
	b.ResetTimer()
	var ticks int
	for i := 0; i < b.N; i++ {
		res, err := topomap.Map(g, topomap.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ticks = res.Ticks
	}
	b.ReportMetric(float64(ticks), "ticks")
	b.ReportMetric(float64(ticks)/float64(g.N()*d), "ticks/ND")
}

func BenchmarkMapRing16(b *testing.B)     { benchMap(b, topomap.FamilyRing, 16) }
func BenchmarkMapRing64(b *testing.B)     { benchMap(b, topomap.FamilyRing, 64) }
func BenchmarkMapTorus36(b *testing.B)    { benchMap(b, topomap.FamilyTorus, 36) }
func BenchmarkMapTorus100(b *testing.B)   { benchMap(b, topomap.FamilyTorus, 100) }
func BenchmarkMapKautz24(b *testing.B)    { benchMap(b, topomap.FamilyKautz, 24) }
func BenchmarkMapKautz96(b *testing.B)    { benchMap(b, topomap.FamilyKautz, 96) }
func BenchmarkMapRandom32(b *testing.B)   { benchMap(b, topomap.FamilyRandom, 32) }
func BenchmarkMapHypercube(b *testing.B)  { benchMap(b, topomap.FamilyHypercube, 16) }
func BenchmarkMapTreeLoop31(b *testing.B) { benchMap(b, topomap.FamilyTreeLoop, 31) }

// Primitive benchmarks: one standalone BCA / RCA transaction.

func BenchmarkSendBackwardRing32(b *testing.B) {
	g := topomap.Ring(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topomap.SendBackward(g, 0, 1, topomap.PayloadPing, topomap.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignalRootTorus64(b *testing.B) {
	g := topomap.Torus(8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topomap.SignalRoot(g, 37, true, 1, 1, topomap.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate benchmarks.

func BenchmarkGraphGenKautz(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := topomap.Build(topomap.FamilyKautz, 96, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphCanonical(b *testing.B) {
	g, _ := topomap.Build(topomap.FamilyKautz, 96, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CanonicalFrom(0)
	}
}

func BenchmarkGraphDiameter(b *testing.B) {
	g, _ := topomap.Build(topomap.FamilyTorus, 144, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Diameter()
	}
}

// Scaling series rendered as sub-benchmarks (the "figure" form of E2).
func BenchmarkMapScaling(b *testing.B) {
	for _, n := range []int{12, 24, 48} {
		for _, fam := range []topomap.Family{topomap.FamilyRing, topomap.FamilyTorus, topomap.FamilyKautz} {
			g, err := topomap.Build(fam, n, 3)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/N%d", fam, g.N()), func(b *testing.B) {
				var ticks int
				for i := 0; i < b.N; i++ {
					res, err := topomap.Map(g, topomap.Options{})
					if err != nil {
						b.Fatal(err)
					}
					ticks = res.Ticks
				}
				b.ReportMetric(float64(ticks), "ticks")
			})
		}
	}
}
