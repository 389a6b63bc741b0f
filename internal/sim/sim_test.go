package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// pulseNode emits one KILL pulse on every out-port at its first step, and
// forwards the first KILL it hears — exactly once in its lifetime, so a
// pulse wave traverses any graph once and dies. A minimal automaton to
// probe engine semantics without the full protocol.
type pulseNode struct {
	info      sim.NodeInfo
	kick      bool
	forward   bool
	forwarded bool
	heard     int
}

func (p *pulseNode) Busy() bool { return p.kick || p.forward }

func (p *pulseNode) Step(io *sim.Ports) {
	for port := 1; port <= p.info.Delta; port++ {
		if io.InMask(port)&wire.KillBit != 0 {
			p.heard++
			if !p.forwarded {
				p.forward = true
			}
		}
	}
	// Forward in the same tick it was heard (speed-3 semantics), once.
	if p.kick || p.forward {
		p.kick, p.forward = false, false
		p.forwarded = true
		for port := 1; port <= p.info.Delta; port++ {
			if p.info.OutWired(port) {
				io.SetKill(port)
			}
		}
	}
}

func TestEngineDeliveryLatency(t *testing.T) {
	// 0 → 1 → 2 ring: a pulse from node 0 must reach node 1 at tick 1
	// and node 2 at tick 2 (one tick per hop).
	g := graph.Ring(3)
	var nodes []*pulseNode
	eng := sim.New(g, sim.Options{StopWhenQuiescent: true, MaxTicks: 100}, func(info sim.NodeInfo) sim.Automaton {
		n := &pulseNode{info: info, kick: info.Root}
		nodes = append(nodes, n)
		return n
	})
	// Run tick by tick and observe arrival times.
	arrival := map[int]int{}
	for tick := 0; tick < 10; tick++ {
		if _, err := eng.RunOne(); err != nil && !errors.Is(err, sim.ErrDeadlock) {
			t.Fatal(err)
		}
		for v := 1; v < 3; v++ {
			if _, seen := arrival[v]; !seen && nodes[v].heard > 0 {
				arrival[v] = tick
			}
		}
	}
	// Node 0 emits during tick 0; node 1 reads it during tick 1, node 2
	// during tick 2 — one tick per hop.
	if arrival[1] != 1 || arrival[2] != 2 {
		t.Fatalf("per-hop latency must be 1 tick: %v", arrival)
	}
}

func TestEnginePortAwareness(t *testing.T) {
	// A node with an unwired port must see OutWired/InWired false there.
	g := graph.New(2, 3)
	g.MustConnect(0, 2, 1, 3)
	g.MustConnect(1, 1, 0, 1)
	var infos []sim.NodeInfo
	sim.New(g, sim.Options{}, func(info sim.NodeInfo) sim.Automaton {
		infos = append(infos, info)
		return &pulseNode{info: info}
	})
	if !infos[0].OutWired(2) || infos[0].OutWired(1) || infos[0].OutWired(3) {
		t.Fatalf("node 0 out-awareness wrong: %b", infos[0].OutW)
	}
	if !infos[0].InWired(1) || infos[0].InWired(2) {
		t.Fatalf("node 0 in-awareness wrong: %b", infos[0].InW)
	}
	if !infos[1].InWired(3) || infos[1].InWired(1) {
		t.Fatalf("node 1 in-awareness wrong: %b", infos[1].InW)
	}
}

func TestEngineQuiescenceStops(t *testing.T) {
	g := graph.Ring(4)
	eng := sim.New(g, sim.Options{StopWhenQuiescent: true, MaxTicks: 1000}, func(info sim.NodeInfo) sim.Automaton {
		return &pulseNode{info: info, kick: info.Root}
	})
	stats, err := eng.Run()
	if err != nil {
		t.Fatalf("quiescence should be a clean stop: %v", err)
	}
	if stats.Ticks <= 0 || stats.Ticks > 100 {
		t.Fatalf("implausible tick count %d", stats.Ticks)
	}
}

func TestEngineDeadlockError(t *testing.T) {
	g := graph.Ring(4)
	eng := sim.New(g, sim.Options{MaxTicks: 1000}, func(info sim.NodeInfo) sim.Automaton {
		return &pulseNode{info: info, kick: info.Root}
	})
	if _, err := eng.Run(); !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
}

// stubborn never terminates and stays busy.
type stubborn struct{ sim.NodeInfo }

func (s *stubborn) Busy() bool       { return true }
func (s *stubborn) Step(*sim.Ports)  {}
func (s *stubborn) Terminated() bool { return false }

func TestEngineMaxTicks(t *testing.T) {
	g := graph.Ring(2)
	eng := sim.New(g, sim.Options{MaxTicks: 50}, func(info sim.NodeInfo) sim.Automaton {
		return &stubborn{info}
	})
	if _, err := eng.Run(); !errors.Is(err, sim.ErrMaxTicks) {
		t.Fatalf("want ErrMaxTicks, got %v", err)
	}
}

func TestEngineStatsCountMessages(t *testing.T) {
	g := graph.Ring(3)
	eng := sim.New(g, sim.Options{StopWhenQuiescent: true, MaxTicks: 100}, func(info sim.NodeInfo) sim.Automaton {
		return &pulseNode{info: info, kick: info.Root}
	})
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The pulse traverses the 3-ring exactly once: three single-port
	// emissions.
	if stats.NonBlankMessages != 3 {
		t.Fatalf("want 3 messages, got %d", stats.NonBlankMessages)
	}
}

// TestNaiveVsTrackedTranscripts runs the full protocol twice — naive engine
// vs activity-tracked engine — and demands byte-identical transcripts: the
// optimisation must be observationally invisible.
func TestNaiveVsTrackedTranscripts(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"torus3x4", graph.Torus(3, 4)},
		{"random10", graph.Random(10, 3, 20, 5)},
		{"kautz", graph.Kautz(2, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(naive bool) []string {
				var entries []string
				eng := sim.New(tc.g, sim.Options{
					Naive:    naive,
					MaxTicks: 4_000_000,
					Transcript: func(e sim.TranscriptEntry) {
						s := fmt.Sprintf("%d:", e.Tick)
						for p, m := range e.In {
							if !m.IsBlank() {
								s += fmt.Sprintf("i%d=%v;", p, m)
							}
						}
						for p, m := range e.Out {
							if !m.IsBlank() {
								s += fmt.Sprintf("o%d=%v;", p, m)
							}
						}
						entries = append(entries, s)
					},
				}, gtd.NewFactory(gtd.DefaultConfig()))
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				return entries
			}
			naive := run(true)
			tracked := run(false)
			if len(naive) != len(tracked) {
				t.Fatalf("entry counts differ: naive %d vs tracked %d", len(naive), len(tracked))
			}
			for i := range naive {
				if naive[i] != tracked[i] {
					t.Fatalf("entry %d differs:\nnaive:   %s\ntracked: %s", i, naive[i], tracked[i])
				}
			}
		})
	}
}

func TestEngineDeterminism(t *testing.T) {
	g := graph.Random(12, 3, 26, 3)
	run := func() (int, int64) {
		eng := sim.New(g, sim.Options{MaxTicks: 4_000_000}, gtd.NewFactory(gtd.DefaultConfig()))
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats.Ticks, stats.NonBlankMessages
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 || m1 != m2 {
		t.Fatalf("engine must be deterministic: (%d,%d) vs (%d,%d)", t1, m1, t2, m2)
	}
}

func TestPendingInExposesWireTraffic(t *testing.T) {
	g := graph.Ring(3)
	var sawKill bool
	obs := sim.ObserverFunc(func(tick int, e *sim.Engine) {
		for v := 0; v < 3; v++ {
			if e.PendingIn(v, 1).Kill {
				sawKill = true
			}
		}
	})
	eng := sim.New(g, sim.Options{StopWhenQuiescent: true, MaxTicks: 20, Observers: []sim.Observer{obs}},
		func(info sim.NodeInfo) sim.Automaton {
			n := &pulseNode{info: info, kick: info.Root}
			n.forward = false
			return n
		})
	_, _ = eng.Run()
	if !sawKill {
		t.Fatal("observer should see the pulse on the wire")
	}
}

// TestRunOnePendingInMatchesDeliveries drives the full protocol tick by
// tick through RunOne with an observer reading every wire through
// PendingIn between ticks: the engine must be consistent at each tick
// boundary, so the observer sees exactly the symbols the engine delivered.
func TestRunOnePendingInMatchesDeliveries(t *testing.T) {
	g := graph.Torus(4, 4)
	var observed int64
	eng := sim.New(g, sim.Options{
		MaxTicks: 4_000_000,
		Observers: []sim.Observer{sim.ObserverFunc(func(tick int, e *sim.Engine) {
			for v := 0; v < g.N(); v++ {
				for p := 1; p <= g.Delta(); p++ {
					if m := e.PendingIn(v, p); !m.IsBlank() {
						observed++
					}
				}
			}
		})},
	}, gtd.NewFactory(gtd.DefaultConfig()))
	ticks := 0
	for {
		more, err := eng.RunOne()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		ticks++
	}
	if ticks == 0 || observed == 0 {
		t.Fatalf("expected a live run, got %d ticks / %d observed symbols", ticks, observed)
	}
	if observed != eng.Stats().NonBlankMessages {
		t.Fatalf("observer saw %d pending symbols, engine delivered %d", observed, eng.Stats().NonBlankMessages)
	}
}
