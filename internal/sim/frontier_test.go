package sim_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
)

// denseSparseTranscript runs the full protocol and renders the root
// transcript, the mode-invariant statistics, and the failure outcome into a
// canonical string. StepCalls is deliberately excluded: Naive mode steps
// every node every tick by definition, so its step count is N·ticks rather
// than the active count — everything else must be bit-identical.
func denseSparseTranscript(t *testing.T, g *graph.Graph, naive bool, workers, root, maxTicks int) string {
	t.Helper()
	var b strings.Builder
	eng := sim.New(g, sim.Options{
		Root:              root,
		MaxTicks:          maxTicks,
		Naive:             naive,
		Workers:           workers,
		ParallelThreshold: 1,
		Transcript: func(e sim.TranscriptEntry) {
			fmt.Fprintf(&b, "%d:", e.Tick)
			for p, m := range e.In {
				if !m.IsBlank() {
					fmt.Fprintf(&b, "i%d=%v;", p, m)
				}
			}
			for p, m := range e.Out {
				if !m.IsBlank() {
					fmt.Fprintf(&b, "o%d=%v;", p, m)
				}
			}
			b.WriteByte('\n')
		},
	}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := eng.Run()
	fmt.Fprintf(&b, "stats: ticks=%d msgs=%d maxactive=%d\n",
		stats.Ticks, stats.NonBlankMessages, stats.MaxActive)
	fmt.Fprintf(&b, "err: %v\n", err)
	return b.String()
}

// TestDenseSparseEquivalence is the frontier scheduler's core contract: for
// every graph family and worker count, sparse scheduling must produce
// transcripts, reconstructive statistics, and termination behaviour
// bit-identical to the dense Naive reference.
func TestDenseSparseEquivalence(t *testing.T) {
	for name, g := range equivalenceGraphs(t) {
		t.Run(name, func(t *testing.T) {
			want := denseSparseTranscript(t, g, true, 1, 0, 8_000_000)
			for _, workers := range []int{1, 2, 4, 8} {
				if got := denseSparseTranscript(t, g, false, workers, 0, 8_000_000); got != want {
					t.Fatalf("sparse workers=%d diverges from dense:\ndense:\n%s\nsparse:\n%s",
						workers, want, got)
				}
				if got := denseSparseTranscript(t, g, true, workers, 0, 8_000_000); got != want {
					t.Fatalf("dense workers=%d diverges from dense workers=1", workers)
				}
			}
		})
	}
}

// TestDenseSparseRootSweep re-asserts the equivalence for every root choice
// of one graph (the root's shard placement and transcript capture move with
// the root).
func TestDenseSparseRootSweep(t *testing.T) {
	g := graph.Torus(3, 4)
	for root := 0; root < g.N(); root++ {
		want := denseSparseTranscript(t, g, true, 1, root, 8_000_000)
		for _, workers := range []int{1, 4} {
			if got := denseSparseTranscript(t, g, false, workers, root, 8_000_000); got != want {
				t.Fatalf("root=%d workers=%d: sparse diverges from dense", root, workers)
			}
		}
	}
}

// TestDenseSparseFailureEquivalence: a run that exhausts its tick budget
// must fail identically — same error, same tick, same mode-invariant stats
// — under dense and sparse scheduling at every worker count.
func TestDenseSparseFailureEquivalence(t *testing.T) {
	g := graph.Torus(4, 4)
	want := denseSparseTranscript(t, g, true, 1, 0, 40)
	if !strings.Contains(want, "err: sim: maximum tick count exceeded") {
		t.Fatalf("reference run should fail on the budget:\n%s", want)
	}
	for _, naive := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			if got := denseSparseTranscript(t, g, naive, workers, 0, 40); got != want {
				t.Fatalf("naive=%v workers=%d: failure diverges\nwant:\n%s\ngot:\n%s",
					naive, workers, want, got)
			}
		}
	}
}

// faultTranscript is denseSparseTranscript with a fault plan installed; the
// canonical string additionally pins the deterministic drop count, so every
// mode must lose the same symbols at the same ticks. Faults can drive the
// protocol automata into states they consider impossible, which panics; the
// engine re-raises such panics deterministically (lowest active node, same
// tick), so the panic payload is folded into the canonical string too.
func faultTranscript(t *testing.T, g *graph.Graph, plan *sim.FaultPlan, naive bool, workers, maxTicks int) (out string) {
	t.Helper()
	var b strings.Builder
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(&b, "panic: %v\n", r)
			out = b.String()
		}
	}()
	eng := sim.New(g, sim.Options{
		MaxTicks:          maxTicks,
		Naive:             naive,
		Workers:           workers,
		ParallelThreshold: 1,
		Faults:            plan,
		Transcript: func(e sim.TranscriptEntry) {
			fmt.Fprintf(&b, "%d:", e.Tick)
			for p, m := range e.In {
				if !m.IsBlank() {
					fmt.Fprintf(&b, "i%d=%v;", p, m)
				}
			}
			for p, m := range e.Out {
				if !m.IsBlank() {
					fmt.Fprintf(&b, "o%d=%v;", p, m)
				}
			}
			b.WriteByte('\n')
		},
	}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := eng.Run()
	fmt.Fprintf(&b, "stats: ticks=%d msgs=%d maxactive=%d dropped=%d\n",
		stats.Ticks, stats.NonBlankMessages, stats.MaxActive, stats.Dropped)
	fmt.Fprintf(&b, "err: %v\n", err)
	return b.String()
}

// TestDenseSparseFaultEquivalence extends the scheduler contract to faulted
// runs on the irregular families: with message loss and fail-stop crashes
// injected, the transcript, the drop count, and the failure outcome must
// stay bit-identical between dense and sparse scheduling at every worker
// count — a crashed node's stale wheel wake must not produce extra idle
// ticks in sparse mode, and drop decisions must not depend on sharding.
func TestDenseSparseFaultEquivalence(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		plan *sim.FaultPlan
	}{
		{"er-drop", graph.ErdosRenyi(20, 5, 0.15, 7), &sim.FaultPlan{Seed: 3, DropRate: 0.01}},
		{"ba-crash", graph.BarabasiAlbert(20, 2, 5, 9),
			&sim.FaultPlan{Crashes: []sim.Crash{{Node: 10, Tick: 120}}}},
		{"astier-drop-crash", graph.ASTiers(24, 6, 3),
			&sim.FaultPlan{Seed: 11, DropRate: 0.005, Crashes: []sim.Crash{{Node: 5, Tick: 200}}}},
		{"chordal-drop", graph.ChordalRing(16, 3), &sim.FaultPlan{Seed: 1, DropRate: 0.02}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := faultTranscript(t, tc.g, tc.plan, true, 1, 40_000)
			for _, naive := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4, 8} {
					if got := faultTranscript(t, tc.g, tc.plan, naive, workers, 40_000); got != want {
						t.Fatalf("naive=%v workers=%d: faulted run diverges\nwant:\n%s\ngot:\n%s",
							naive, workers, want, got)
					}
				}
			}
		})
	}
}

// TestDenseSparsePanicEquivalence: a model-validation panic must carry the
// same payload (lowest active node, same tick) whichever scheduler and
// worker count produced it.
func TestDenseSparsePanicEquivalence(t *testing.T) {
	g := graph.Ring(24)
	run := func(naive bool, workers int) (msg string) {
		factory := func(info sim.NodeInfo) sim.Automaton {
			return &floodNode{info: info, kick: info.Root}
		}
		eng := sim.New(g, sim.Options{
			MaxTicks:          1000,
			Validate:          true,
			Naive:             naive,
			Workers:           workers,
			ParallelThreshold: 1,
			StopWhenQuiescent: true,
		}, factory)
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		_, _ = eng.Run()
		return "no panic"
	}
	want := run(true, 1)
	if !strings.Contains(want, "sim: node") {
		t.Fatalf("reference run should panic on validation: %q", want)
	}
	for _, naive := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			if got := run(naive, workers); got != want {
				t.Fatalf("naive=%v workers=%d: panic diverges: %q vs %q", naive, workers, got, want)
			}
		}
	}
}

// TestFrontierRootOnly: the smallest legal network. Only the root is seeded
// into the initial frontier; the run must still complete exactly.
func TestFrontierRootOnly(t *testing.T) {
	g := graph.TwoCycle()
	want := denseSparseTranscript(t, g, true, 1, 0, 1_000_000)
	got := denseSparseTranscript(t, g, false, 1, 0, 1_000_000)
	if got != want {
		t.Fatalf("TwoCycle: sparse diverges from dense:\n%s\nvs\n%s", got, want)
	}
	if !strings.Contains(got, "err: <nil>") {
		t.Fatalf("TwoCycle run failed:\n%s", got)
	}
}

// holdRelay forwards a single pulse around a ring, holding it for `hold`
// ticks before re-emitting: a busy-without-input processor (the frontier
// must keep re-scheduling it from its Busy() report alone, like a relay
// carrying a speed-1 snake character).
type holdRelay struct {
	kick    bool
	holding int // ticks left before re-emission; -1 = idle
	hold    int
	steps   int
}

func (h *holdRelay) Busy() bool { return h.kick || h.holding >= 0 }

func (h *holdRelay) Step(io *sim.Ports) {
	h.steps++
	if io.InMask(1) != 0 {
		h.holding = h.hold
	}
	if h.kick {
		h.kick = false
		io.SetKill(1)
		return
	}
	if h.holding > 0 {
		h.holding--
		return
	}
	if h.holding == 0 {
		h.holding = -1
		io.SetKill(1)
	}
}

// TestFrontierBusyRelayStepCount pins the exact O(active) step count on a
// chain of relays whose last node absorbs the pulse (no recirculation): a
// busy-without-input relay must be rescheduled every tick it holds the
// pulse, and nothing else may step at all.
func TestFrontierBusyRelayStepCount(t *testing.T) {
	const n, hold = 12, 4
	// Directed chain 0→1→…→n-1 closed by n-1→0 to satisfy wiring; the
	// sink automaton at n-1 absorbs the pulse without re-emitting.
	g := graph.Ring(n)
	eng := sim.New(g, sim.Options{
		MaxTicks:          10_000,
		StopWhenQuiescent: true,
	}, func(info sim.NodeInfo) sim.Automaton {
		if info.Index == n-1 {
			return &sinkNode{}
		}
		return &holdRelay{kick: info.Root, holding: -1, hold: hold}
	})
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Steps: node 0 kicks (1 step). Each middle relay 1..n-2 steps once on
	// receipt (which starts the hold countdown), hold-1 more times purely
	// holding, then once to emit: hold+1 steps. The sink steps once.
	wantSteps := int64(1 + (n-2)*(hold+1) + 1)
	if stats.StepCalls != wantSteps {
		t.Fatalf("StepCalls = %d, want exactly %d (sparse scheduling must charge only active nodes)",
			stats.StepCalls, wantSteps)
	}
	// Ticks: the pulse resides hold+1 ticks at each middle relay (receipt
	// through emission), reaches the sink one tick after the last
	// emission, and the engine closes with one empty quiescence tick.
	wantTicks := 1 + (n-2)*(hold+1) + 2
	if stats.Ticks != wantTicks {
		t.Fatalf("Ticks = %d, want %d", stats.Ticks, wantTicks)
	}
	// At most one processor is ever delivered a symbol per tick here.
	if stats.MaxActive != 1 {
		t.Fatalf("MaxActive = %d, want 1", stats.MaxActive)
	}
}

// sinkNode consumes everything and never emits.
type sinkNode struct{ steps int }

func (s *sinkNode) Busy() bool { return false }
func (s *sinkNode) Step(*sim.Ports) {
	s.steps++
}

// feeder emits one pulse on out-port 1 at its first step.
type feeder struct{ kick bool }

func (f *feeder) Busy() bool { return f.kick }
func (f *feeder) Step(io *sim.Ports) {
	if f.kick {
		f.kick = false
		io.SetKill(1)
	}
}

// TestFrontierRedeliveryDedup: two feeders deliver to the same sink in the
// same tick. The sink must be enqueued (and stepped, and counted live)
// exactly once.
func TestFrontierRedeliveryDedup(t *testing.T) {
	// 0 and 1 both feed 2; 2 feeds back to 0 and 1 (wiring validity).
	g := graph.New(3, 2)
	g.MustConnect(0, 1, 2, 1)
	g.MustConnect(1, 1, 2, 2)
	g.MustConnect(2, 1, 0, 1)
	g.MustConnect(2, 2, 1, 1)
	sink := &sinkNode{}
	eng := sim.New(g, sim.Options{
		MaxTicks:          100,
		StopWhenQuiescent: true,
	}, func(info sim.NodeInfo) sim.Automaton {
		if info.Index == 2 {
			return sink
		}
		return &feeder{kick: true}
	})
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sink.steps != 1 {
		t.Fatalf("sink stepped %d times, want exactly 1 (same-tick re-delivery must dedup)", sink.steps)
	}
	if stats.StepCalls != 3 {
		t.Fatalf("StepCalls = %d, want 3 (two feeders + one deduped sink step)", stats.StepCalls)
	}
	if stats.NonBlankMessages != 2 {
		t.Fatalf("NonBlankMessages = %d, want 2", stats.NonBlankMessages)
	}
	// Both deliveries land on one node: the live count for that tick is 1.
	if stats.MaxActive != 1 {
		t.Fatalf("MaxActive = %d, want 1 (one distinct delivery destination)", stats.MaxActive)
	}
}

// armable is idle until externally armed between ticks; when stepped while
// armed it emits one pulse and disarms.
type armable struct {
	armed   bool
	stepped []int
	tick    func() int
}

func (a *armable) Busy() bool { return a.armed }
func (a *armable) Step(io *sim.Ports) {
	a.stepped = append(a.stepped, a.tick())
	if a.armed {
		a.armed = false
		io.SetKill(1)
	}
}

// ticker stays busy (and silent) for a fixed number of ticks, keeping the
// network alive.
type ticker struct{ left int }

func (tk *ticker) Busy() bool { return tk.left > 0 }
func (tk *ticker) Step(*sim.Ports) {
	if tk.left > 0 {
		tk.left--
	}
}

// TestWakeSchedulesExternallyArmedNode covers the documented escape hatch
// for mid-run external arming: without Wake an externally armed node is
// not scheduled (the tightened Busy contract); with Wake it steps on the
// very next tick.
func TestWakeSchedulesExternallyArmedNode(t *testing.T) {
	g := graph.TwoCycle()
	tk := &ticker{left: 30}
	var eng *sim.Engine
	arm := &armable{}
	arm.tick = func() int { return eng.Tick() }
	eng = sim.New(g, sim.Options{
		MaxTicks:          100,
		StopWhenQuiescent: true,
	}, func(info sim.NodeInfo) sim.Automaton {
		if info.Index == 0 {
			return tk
		}
		return arm
	})
	step := func() {
		t.Helper()
		if _, err := eng.RunOne(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		step()
	}
	// Arm without Wake: contract says the frontier cannot see it.
	arm.armed = true
	step()
	if len(arm.stepped) != 0 {
		t.Fatalf("externally armed node stepped without Wake at ticks %v", arm.stepped)
	}
	// Wake makes it schedulable on the next tick.
	eng.Wake(1)
	eng.Wake(1) // idempotent
	step()
	if len(arm.stepped) != 1 || arm.stepped[0] != 6 {
		t.Fatalf("woken node should step exactly once at tick 6, stepped at %v", arm.stepped)
	}
	// Its emission re-enters the ordinary frontier flow: node 0 hears it.
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontierResetReuseAfterAbort: a run cancelled mid-flood leaves a
// populated frontier and hot epoch stamps; Reset to a different (smaller)
// graph must still be bit-identical to a fresh engine.
func TestFrontierResetReuseAfterAbort(t *testing.T) {
	big := graph.Torus(4, 4)
	small := graph.Ring(8)
	stop := errors.New("abort")
	armed := false
	var rec transcriptRecorder
	eng := sim.New(big, sim.Options{
		Workers:           2,
		ParallelThreshold: 1,
		RetainPool:        true,
		Transcript:        rec.record,
		Cancel: func() error {
			if armed {
				return stop
			}
			return nil
		},
	}, gtd.NewFactory(gtd.DefaultConfig()))
	defer eng.Close()
	for i := 0; i < 300; i++ {
		if _, err := eng.RunOne(); err != nil {
			t.Fatal(err)
		}
	}
	armed = true
	if _, err := eng.Run(); !errors.Is(err, stop) {
		t.Fatalf("expected the cancellation error, got %v", err)
	}
	armed = false
	rec.b.Reset()

	want := runTranscript(t, small, 2)
	eng.Reset(small)
	if got := rec.finish(t, eng); got != want {
		t.Fatalf("reuse after mid-flood abort diverges from fresh:\nfresh:\n%s\nreused:\n%s", want, got)
	}
}

// TestFrontierSparseIterationsRing1024 pins the acceptance criterion: over
// a representative window of a 1024-node ring run, the sparse scheduler's
// step-loop iterations (= its StepCalls — every frontier node steps) must
// be at least 10× below the dense sweep's N iterations per tick.
func TestFrontierSparseIterationsRing1024(t *testing.T) {
	g := graph.Ring(1024)
	eng := sim.New(g, sim.Options{MaxTicks: 200_000, Workers: 1}, gtd.NewFactory(gtd.DefaultConfig()))
	_, err := eng.Run()
	if !errors.Is(err, sim.ErrMaxTicks) {
		t.Fatalf("window run should end on the tick budget, got %v", err)
	}
	stats := eng.Stats()
	dense := int64(g.N()) * int64(stats.Ticks)
	if stats.StepCalls*10 > dense {
		t.Fatalf("sparse iterations %d vs dense %d: less than the required 10× drop (%.1f×)",
			stats.StepCalls, dense, float64(dense)/float64(stats.StepCalls))
	}
}
