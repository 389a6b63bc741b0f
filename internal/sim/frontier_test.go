package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// denseSparseTranscript runs the full protocol and renders the root
// transcript, the mode-invariant statistics, and the failure outcome into a
// canonical string. StepCalls is deliberately excluded: Naive mode steps
// every node every tick by definition, so its step count is N·ticks rather
// than the active count — everything else must be bit-identical.
func denseSparseTranscript(t *testing.T, g *graph.Graph, naive bool, root, maxTicks int) string {
	t.Helper()
	var rec transcriptRecorder
	b := &rec.b
	eng := sim.New(g, sim.Options{
		Root:       root,
		MaxTicks:   maxTicks,
		Naive:      naive,
		Transcript: rec.record,
	}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := eng.Run()
	fmt.Fprintf(b, "stats: ticks=%d msgs=%d maxactive=%d\n",
		stats.Ticks, stats.NonBlankMessages, stats.MaxActive)
	fmt.Fprintf(b, "err: %v\n", err)
	return b.String()
}

// TestDenseSparseEquivalence is the frontier scheduler's core contract: for
// every graph family, sparse scheduling must produce transcripts,
// reconstructive statistics, and termination behaviour bit-identical to the
// dense Naive reference.
func TestDenseSparseEquivalence(t *testing.T) {
	for name, g := range equivalenceGraphs(t) {
		t.Run(name, func(t *testing.T) {
			want := denseSparseTranscript(t, g, true, 0, 8_000_000)
			if got := denseSparseTranscript(t, g, false, 0, 8_000_000); got != want {
				t.Fatalf("sparse diverges from dense:\ndense:\n%s\nsparse:\n%s", want, got)
			}
		})
	}
}

// TestDenseSparseRootSweep re-asserts the equivalence for every root choice
// of one graph (the root's transcript capture moves with the root).
func TestDenseSparseRootSweep(t *testing.T) {
	g := graph.Torus(3, 4)
	for root := 0; root < g.N(); root++ {
		want := denseSparseTranscript(t, g, true, root, 8_000_000)
		if got := denseSparseTranscript(t, g, false, root, 8_000_000); got != want {
			t.Fatalf("root=%d: sparse diverges from dense", root)
		}
	}
}

// TestDenseSparseFailureEquivalence: a run that exhausts its tick budget
// must fail identically — same error, same tick, same mode-invariant stats
// — under dense and sparse scheduling.
func TestDenseSparseFailureEquivalence(t *testing.T) {
	g := graph.Torus(4, 4)
	want := denseSparseTranscript(t, g, true, 0, 40)
	if !strings.Contains(want, "err: sim: maximum tick count exceeded") {
		t.Fatalf("reference run should fail on the budget:\n%s", want)
	}
	if got := denseSparseTranscript(t, g, false, 0, 40); got != want {
		t.Fatalf("sparse failure diverges\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// faultTranscript is denseSparseTranscript with a fault plan installed; the
// canonical string additionally pins the deterministic drop count, so every
// mode must lose the same symbols at the same ticks. Faults can drive the
// protocol automata into states they consider impossible, which panics; the
// panic is deterministic (lowest active node, same tick), so its payload is
// folded into the canonical string too.
func faultTranscript(t *testing.T, g *graph.Graph, plan *sim.FaultPlan, naive bool, maxTicks int) (out string) {
	t.Helper()
	var rec transcriptRecorder
	b := &rec.b
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(b, "panic: %v\n", r)
			out = b.String()
		}
	}()
	eng := sim.New(g, sim.Options{
		MaxTicks:   maxTicks,
		Naive:      naive,
		Faults:     plan,
		Transcript: rec.record,
	}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := eng.Run()
	fmt.Fprintf(b, "stats: ticks=%d msgs=%d maxactive=%d dropped=%d\n",
		stats.Ticks, stats.NonBlankMessages, stats.MaxActive, stats.Dropped)
	fmt.Fprintf(b, "err: %v\n", err)
	return b.String()
}

// TestDenseSparseFaultEquivalence extends the scheduler contract to faulted
// runs on the irregular families: with message loss and fail-stop crashes
// injected, the transcript, the drop count, and the failure outcome must
// stay bit-identical between dense and sparse scheduling — a crashed node's
// stale wheel wake must not produce extra idle ticks in sparse mode, and
// drop decisions must not depend on which nodes a tick steps.
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
			want := faultTranscript(t, tc.g, tc.plan, true, 40_000)
			if got := faultTranscript(t, tc.g, tc.plan, false, 40_000); got != want {
				t.Fatalf("sparse faulted run diverges\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// TestParallelNaiveMatchesTracked pins the dense reference at its worst
// case: in Naive mode every processor steps every tick, and the run must
// still end on the same tick with the same message count as sparse
// scheduling. (The name dates from the worker pool, whose merge this case
// once stressed; the check stands on the sequential engine.)
func TestParallelNaiveMatchesTracked(t *testing.T) {
	g := graph.Torus(5, 5)
	run := func(naive bool) (int, int64, int64) {
		eng := sim.New(g, sim.Options{
			MaxTicks: 8_000_000,
			Naive:    naive,
		}, gtd.NewFactory(gtd.DefaultConfig()))
		stats, err := eng.Run()
		if err != nil {
			t.Fatalf("naive=%v: %v", naive, err)
		}
		return stats.Ticks, stats.NonBlankMessages, stats.StepCalls
	}
	sparseTicks, sparseMsgs, _ := run(false)
	ticks, msgs, steps := run(true)
	if ticks != sparseTicks || msgs != sparseMsgs {
		t.Fatalf("naive: (%d ticks, %d msgs) vs sparse (%d, %d)", ticks, msgs, sparseTicks, sparseMsgs)
	}
	if steps != int64(g.N())*int64(ticks) {
		t.Fatalf("naive mode must step every node every tick: %d != %d·%d", steps, g.N(), ticks)
	}
}

// TestParallelValidatePanicPropagates checks that a panic raised inside a
// tick (here: the model validator rejecting an oversized message) reaches
// Run's caller, where harnesses like the speed-ablation experiment recover
// it, and that the engine leaves no goroutine behind. (The name dates from
// the worker pool, whose goroutines once had to re-raise the panic.)
func TestParallelValidatePanicPropagates(t *testing.T) {
	g := graph.Ring(24)
	factory := func(info sim.NodeInfo) sim.Automaton {
		return &floodNode{info: info, kick: info.Root}
	}
	before := runtime.NumGoroutine()
	func() {
		eng := sim.New(g, sim.Options{
			MaxTicks:          1000,
			Validate:          true,
			StopWhenQuiescent: true,
		}, factory)
		defer func() {
			if recover() == nil {
				t.Fatal("expected the validator panic to reach the caller")
			}
		}()
		_, _ = eng.Run()
	}()
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines left behind after the panic: %d before, %d after", before, got)
	}
}

// TestDenseSparsePanicEquivalence: a model-validation panic must carry the
// same payload (lowest active node, same tick) whichever scheduler produced
// it.
func TestDenseSparsePanicEquivalence(t *testing.T) {
	g := graph.Ring(24)
	run := func(naive bool) (msg string) {
		factory := func(info sim.NodeInfo) sim.Automaton {
			return &floodNode{info: info, kick: info.Root}
		}
		eng := sim.New(g, sim.Options{
			MaxTicks:          1000,
			Validate:          true,
			Naive:             naive,
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
	want := run(true)
	if !strings.Contains(want, "sim: node") {
		t.Fatalf("reference run should panic on validation: %q", want)
	}
	if got := run(false); got != want {
		t.Fatalf("sparse panic diverges: %q vs %q", got, want)
	}
}

// floodNode keeps every wire busy with an invalid symbol (an out-of-range
// snake port) so the validator must fire.
type floodNode struct {
	info sim.NodeInfo
	kick bool
	seen bool
}

func (f *floodNode) Busy() bool { return f.kick || f.seen }

func (f *floodNode) Step(io *sim.Ports) {
	for p := 1; p <= f.info.Delta; p++ {
		if io.InMask(p) != 0 {
			f.seen = true
		}
	}
	if f.kick || f.seen {
		f.kick = false
		for p := 1; p <= f.info.Delta; p++ {
			if f.info.OutWired(p) {
				// Deliberately malformed ports (31 > δ) to trip -validate.
				io.SetGrow(p, 0, wire.PackGrowChar(wire.GrowChar{Kind: wire.KindIG, Out: 31, In: 31}))
			}
		}
	}
}

// TestFrontierRootOnly: the smallest legal network. Only the root is seeded
// into the initial frontier; the run must still complete exactly.
func TestFrontierRootOnly(t *testing.T) {
	g := graph.TwoCycle()
	want := denseSparseTranscript(t, g, true, 0, 1_000_000)
	got := denseSparseTranscript(t, g, false, 0, 1_000_000)
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
		Transcript: rec.record,
		Cancel: func() error {
			if armed {
				return stop
			}
			return nil
		},
	}, gtd.NewFactory(gtd.DefaultConfig()))
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

	want := runTranscript(t, small)
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
	eng := sim.New(g, sim.Options{MaxTicks: 200_000}, gtd.NewFactory(gtd.DefaultConfig()))
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

// scriptedHolder is a Holder driven by an absolute-tick script: it needs
// stepping on its own at the ticks in wakeAt, emits a KILL on out-port p at
// the ticks in emit[p], and logs every sparse step into a shared log. Its
// Hold is the distance to its next own tick from its last step, so a
// delivery that steps it early leaves a stale wake behind on the timing
// wheel. Emissions depend on the tick alone, so Naive mode's extra steps
// are no-ops, as the Holder contract requires.
type scriptedHolder struct {
	script
	node int
	last int
	tick func() int
	log  *[][2]int // (tick, node) per step; nil under Naive
}

type script struct {
	wakeAt []int
	emit   [3][]int // by out-port; index 0 unused
}

func (s *scriptedHolder) next() int {
	for _, t := range s.wakeAt {
		if t > s.last {
			return t
		}
	}
	return -1
}

func (s *scriptedHolder) Busy() bool { return s.next() >= 0 }
func (s *scriptedHolder) Hold() int {
	if n := s.next(); n >= 0 {
		return n - s.last - 1
	}
	return -1
}
func (s *scriptedHolder) AdvanceHold(int) {}
func (s *scriptedHolder) Step(io *sim.Ports) {
	now := s.tick()
	s.last = now
	if s.log != nil {
		*s.log = append(*s.log, [2]int{now, s.node})
	}
	for p := 1; p <= 2; p++ {
		if slices.Contains(s.emit[p], now) {
			io.SetKill(p)
		}
	}
}

// TestFrontierBitmapBoundaries schedules nodes at the next-frontier
// bitmap's word boundaries (63|64, 127|128), its summary boundary
// (4095|4096) and the last node of a 4200-node ring by every route at once.
// Each target's dedicated sender (two nodes ahead, over a chord into
// in-port 2) delivers to it at ticks 9, 10 and 20. At tick 10 the target
// is delivered a symbol, re-enqueued (its step at 9 reports hold 0), has a
// stale wake due on the timing wheel (parked at 5 for 10, voided by the
// delivery at 9), and is Woken; at tick 20 it is delivered a symbol, due
// on the wheel (parked at 10) and Woken. Every tick must step its nodes in
// strictly ascending order — each target exactly once — and Run, a RunOne
// loop and Naive must agree on the transcript and statistics.
func TestFrontierBitmapBoundaries(t *testing.T) {
	const n = 4200
	targets := []int{63, 64, 127, 128, 4095, 4096, n - 1}
	const idle = 2 // not scheduled by anything but Wake
	g := graph.Ring(n)
	scripts := map[int]script{}
	for _, v := range targets {
		// Ring successors hear the targets (node 0 hears node n-1, so the
		// root transcript records ticks 11 and 21).
		scripts[v] = script{wakeAt: []int{0, 5, 10, 20}, emit: [3][]int{1: {10, 20}}}
	}
	for _, v := range targets {
		s := (v + 2) % n
		g.MustConnect(s, 2, v, 2)
		scripts[s] = script{wakeAt: []int{0, 8, 9, 19}, emit: [3][]int{2: {8, 9, 19}}}
	}

	run := func(naive bool, drive func(*sim.Engine) (sim.Stats, error)) (string, [][2]int) {
		var rec transcriptRecorder
		var log [][2]int
		var eng *sim.Engine
		wake := sim.ObserverFunc(func(tick int, e *sim.Engine) {
			if tick == 9 || tick == 19 {
				for _, v := range targets {
					e.Wake(v)
				}
				e.Wake(idle)
			}
		})
		eng = sim.New(g, sim.Options{
			MaxTicks:          1000,
			Naive:             naive,
			StopWhenQuiescent: true,
			Transcript:        rec.record,
			Observers:         []sim.Observer{wake},
		}, func(info sim.NodeInfo) sim.Automaton {
			a := &scriptedHolder{script: scripts[info.Index], node: info.Index, last: -1,
				tick: func() int { return eng.Tick() }}
			if !naive {
				a.log = &log
			}
			return a
		})
		stats, err := drive(eng)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&rec.b, "stats: ticks=%d msgs=%d maxactive=%d dropped=%d\n",
			stats.Ticks, stats.NonBlankMessages, stats.MaxActive, stats.Dropped)
		if !naive {
			fmt.Fprintf(&rec.b, "steps=%d\n", stats.StepCalls)
		}
		return rec.b.String(), log
	}

	burst, burstLog := run(false, (*sim.Engine).Run)
	loop, loopLog := run(false, runOneLoop)
	if loop != burst || !slices.Equal(loopLog, burstLog) {
		t.Fatalf("Run diverges from a RunOne loop:\nRun:\n%s%v\nRunOne:\n%s%v", burst, burstLog, loop, loopLog)
	}
	dense, _ := run(true, (*sim.Engine).Run)
	if sparse, _, _ := strings.Cut(burst, "steps="); sparse != dense {
		t.Fatalf("sparse diverges from Naive:\nsparse:\n%s\nNaive:\n%s", sparse, dense)
	}
	if !strings.Contains(dense, "11:i0=") || !strings.Contains(dense, "21:i0=") {
		t.Fatalf("root transcript misses node %d's ticks-10 and 20 emissions:\n%s", n-1, dense)
	}

	for i := 1; i < len(burstLog); i++ {
		if prev, cur := burstLog[i-1], burstLog[i]; cur[0] < prev[0] || cur[0] == prev[0] && cur[1] <= prev[1] {
			t.Fatalf("step %v follows %v: a tick's nodes must step once each, in ascending order", cur, prev)
		}
	}
	for _, hot := range []int{10, 20} {
		var stepped []int
		for _, s := range burstLog {
			if s[0] == hot {
				stepped = append(stepped, s[1])
			}
		}
		for _, v := range append(targets, idle) {
			if !slices.Contains(stepped, v) {
				t.Fatalf("tick %d: node %d did not step (stepped %v)", hot, v, stepped)
			}
		}
	}
}
