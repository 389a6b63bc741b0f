package gtd

import (
	"fmt"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/sim"
)

// rescanLive recomputes the occupancy mask from component ground truth: the
// reference the incrementally-maintained Processor.live is pinned against.
func rescanLive(p *Processor) uint16 {
	var m uint16
	for bit := liveGrow0; bit <= liveKill; bit <<= 1 {
		if p.liveBitBusy(bit) {
			m |= bit
		}
	}
	return m
}

// checkSchedInvariants asserts, for one processor between ticks:
//
//  1. the live mask equals a fresh component rescan (no stale-off bit ever
//     — a stale-off bit would stall the protocol; stale-on bits are
//     cleared by refreshLive before the engine reads Busy/Hold, so
//     equality is exact at tick boundaries);
//  2. Hold() < 0 exactly when Busy() is false (the sim.Holder contract the
//     timing wheel relies on);
//  3. a reported hold never exceeds the engine cap.
func checkSchedInvariants(t *testing.T, tick, node int, p *Processor) {
	t.Helper()
	if got, want := p.live, rescanLive(p); got != want {
		t.Fatalf("tick %d node %d: live mask %016b, rescan %016b", tick, node, got, want)
	}
	h := p.Hold()
	if (h >= 0) != p.Busy() {
		t.Fatalf("tick %d node %d: Hold()=%d but Busy()=%v", tick, node, h, p.Busy())
	}
	if h > sim.MaxHold {
		t.Fatalf("tick %d node %d: Hold()=%d exceeds sim.MaxHold=%d", tick, node, h, sim.MaxHold)
	}
}

// TestHoldMatchesBusy drives full protocol runs across graph families and
// both scheduling substrates, asserting the Busy/Hold/live-mask invariants
// for every processor at every tick boundary. This is the ground-truth
// anchor for the hold scheduler: the equivalence suites prove runs look
// identical end to end, this test proves the per-processor contract the
// timing wheel depends on.
func TestHoldMatchesBusy(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ring12":   graph.Ring(12),
		"biring9":  graph.BiRing(9),
		"torus3x4": graph.Torus(3, 4),
		"kautz2.2": graph.Kautz(2, 2),
		"random20": graph.Random(20, 3, 44, 7),
	}
	for name, g := range graphs {
		for _, dense := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dense=%v", name, dense), func(t *testing.T) {
				cfg := DefaultConfig()
				var eng *sim.Engine
				check := sim.ObserverFunc(func(tick int, e *sim.Engine) {
					for v := 0; v < g.N(); v++ {
						checkSchedInvariants(t, tick, v, e.Automaton(v).(*Processor))
					}
				})
				eng = sim.New(g, sim.Options{
					MaxTicks:  2_000_000,
					Naive:     dense,
					Observers: []sim.Observer{check},
				}, NewFactory(cfg))
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestHoldSpeedAblations re-runs the invariant check under non-default
// speed configurations (the E10 ablation space): longer pipeline holds and
// KILL delays must still report honest holds.
func TestHoldSpeedAblations(t *testing.T) {
	g := graph.Torus(3, 4)
	// KILL must keep outrunning the snakes (Lemma 4.2) for these runs to
	// terminate; the configurations vary every delay the hold logic folds.
	for _, cfg := range []Config{
		{SnakeDelay: 1, LoopDelay: 1, UnmarkDelay: 0, KillDelay: 0},
		{SnakeDelay: 4, LoopDelay: 4, UnmarkDelay: 1, KillDelay: 1},
		{SnakeDelay: 3, LoopDelay: 6, UnmarkDelay: 0, KillDelay: 0},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("snake%d.kill%d", cfg.SnakeDelay, cfg.KillDelay), func(t *testing.T) {
			check := sim.ObserverFunc(func(tick int, e *sim.Engine) {
				for v := 0; v < g.N(); v++ {
					checkSchedInvariants(t, tick, v, e.Automaton(v).(*Processor))
				}
			})
			eng := sim.New(g, sim.Options{
				MaxTicks:  4_000_000,
				Observers: []sim.Observer{check},
			}, NewFactory(cfg))
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
