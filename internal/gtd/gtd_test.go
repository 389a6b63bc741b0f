package gtd_test

import (
	"testing"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
)

// runGTD executes the full protocol on g with the given root and returns the
// reconstructed graph and run statistics.
func runGTD(t *testing.T, g *graph.Graph, root int) (*graph.Graph, sim.Stats) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("input graph invalid: %v", err)
	}
	m := mapper.New(g.Delta())
	eng := sim.New(g, sim.Options{
		Root:       root,
		Validate:   true,
		MaxTicks:   2_000_000,
		Transcript: m.Process,
	}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := eng.Run()
	if err != nil {
		t.Fatalf("engine: %v (tick %d)", err, stats.Ticks)
	}
	got, err := m.Finish()
	if err != nil {
		t.Fatalf("mapper: %v", err)
	}
	return got, stats
}

// checkExact verifies the mapped graph is port-preserving isomorphic to the
// truth, anchored at the root.
func checkExact(t *testing.T, g *graph.Graph, root int, got *graph.Graph) {
	t.Helper()
	if got.N() != g.N() {
		t.Fatalf("mapped %d nodes, want %d", got.N(), g.N())
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatalf("mapped %d edges, want %d", got.NumEdges(), g.NumEdges())
	}
	if !g.IsomorphicFrom(root, got, 0) {
		t.Fatalf("mapped topology differs:\n truth: %s\n mapped: %s",
			g.CanonicalFrom(root), got.CanonicalFrom(0))
	}
}

func TestGTDTwoCycle(t *testing.T) {
	g := graph.TwoCycle()
	got, _ := runGTD(t, g, 0)
	checkExact(t, g, 0, got)
}

func TestGTDRing5(t *testing.T) {
	g := graph.Ring(5)
	got, stats := runGTD(t, g, 0)
	checkExact(t, g, 0, got)
	t.Logf("ring5: %d ticks, %d messages", stats.Ticks, stats.NonBlankMessages)
}

func TestGTDParallelPair(t *testing.T) {
	g := graph.ParallelPair()
	got, _ := runGTD(t, g, 0)
	checkExact(t, g, 0, got)
}

// TestHookEventSequenceDeterministic pins the Hooks ordering contract: the
// engine steps a tick's processors in ascending node order on one
// goroutine, so the hook event sequence — stamped with the tick it fired
// in — is identical across runs and between dense and sparse scheduling,
// and within a tick its nodes never decrease.
func TestHookEventSequenceDeterministic(t *testing.T) {
	type event struct{ tick, node, kind, payload int }
	record := func(g *graph.Graph, naive bool) []event {
		var events []event
		var eng *sim.Engine
		cfg := gtd.DefaultConfig()
		cfg.Hooks = func(node int, kind gtd.EventKind, payload int) {
			events = append(events, event{eng.Tick(), node, int(kind), payload})
		}
		eng = sim.New(g, sim.Options{MaxTicks: 2_000_000, Naive: naive}, gtd.NewFactory(cfg))
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return events
	}
	for name, g := range map[string]*graph.Graph{
		"torus4x5": graph.Torus(4, 5),
		"er20":     graph.ErdosRenyi(20, 5, 0.15, 7),
	} {
		want := record(g, false)
		if len(want) == 0 {
			t.Fatalf("%s: no hook events fired", name)
		}
		for i := 1; i < len(want); i++ {
			if a, b := want[i-1], want[i]; a.tick > b.tick || (a.tick == b.tick && a.node > b.node) {
				t.Fatalf("%s: event %d %+v precedes %+v out of tick/node order", name, i, a, b)
			}
		}
		for _, naive := range []bool{false, true} {
			got := record(g, naive)
			if len(got) != len(want) {
				t.Fatalf("%s naive=%v: %d events, want %d", name, naive, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s naive=%v: event %d is %+v, want %+v", name, naive, i, got[i], want[i])
				}
			}
		}
	}
}
