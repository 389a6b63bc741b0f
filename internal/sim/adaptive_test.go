package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
)

// dispatch names one way of driving an engine. Every way must produce the
// same observables; only the telemetry counters differ.
type dispatch struct {
	name      string
	threshold int  // Options.ParallelThreshold (0 = the measured default)
	stepwise  bool // a loop of RunOne instead of Run: per-tick dispatch, no burst
}

var (
	dispatchRun    = dispatch{"run", 0, false}
	dispatchFanout = dispatch{"fanout", 1, false}
	dispatchRunOne = dispatch{"runone", 0, true}
	dispatches     = []dispatch{dispatchRun, dispatchFanout, dispatchRunOne}
)

// drive runs eng to completion the way d says.
func (d dispatch) drive(eng *sim.Engine) (sim.Stats, error) {
	if !d.stepwise {
		return eng.Run()
	}
	for {
		more, err := eng.RunOne()
		if err != nil || !more {
			return eng.Stats(), err
		}
	}
}

// schedTranscript runs the full protocol under one dispatch and renders
// the root transcript, the dispatch-invariant statistics
// (Stats.Observables — the telemetry counters differ by design), and the
// failure outcome into a canonical string.
func schedTranscript(t *testing.T, g *graph.Graph, d dispatch, workers, root, maxTicks int) (string, sim.Stats) {
	t.Helper()
	var b strings.Builder
	eng := sim.New(g, sim.Options{
		Root:              root,
		MaxTicks:          maxTicks,
		ParallelThreshold: d.threshold,
		Workers:           workers,
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
	stats, err := d.drive(eng)
	obs := stats.Observables()
	fmt.Fprintf(&b, "stats: %+v\n", obs)
	fmt.Fprintf(&b, "err: %v\n", err)
	return b.String(), stats
}

// TestAdaptiveForcedEquivalence is the dispatcher's core contract: for
// every graph family and worker count, Run at the default threshold
// (bursts, fan-out only on wide frontiers) must produce transcripts,
// observable statistics, and termination behaviour bit-identical to a
// forced fan-out of every non-empty tick and to per-tick RunOne dispatch.
func TestAdaptiveForcedEquivalence(t *testing.T) {
	for name, g := range equivalenceGraphs(t) {
		t.Run(name, func(t *testing.T) {
			want, _ := schedTranscript(t, g, dispatchRunOne, 1, 0, 8_000_000)
			for _, workers := range []int{1, 2, 4, 8} {
				for _, d := range dispatches {
					got, stats := schedTranscript(t, g, d, workers, 0, 8_000_000)
					if got != want {
						t.Fatalf("%s workers=%d diverges:\nwant:\n%s\ngot:\n%s",
							d.name, workers, want, got)
					}
					if total := stats.SeqTicks + stats.ParTicks; total != int64(stats.Ticks) {
						t.Fatalf("%s workers=%d: SeqTicks(%d)+ParTicks(%d) != Ticks(%d)",
							d.name, workers, stats.SeqTicks, stats.ParTicks, stats.Ticks)
					}
					// These networks' frontiers stay far below the
					// crossover, so only the forced fan-out uses the pool.
					if fanned := stats.ParTicks != 0; fanned != (d == dispatchFanout && workers > 1) {
						t.Fatalf("%s workers=%d dispatched %d parallel ticks", d.name, workers, stats.ParTicks)
					}
					if d.stepwise && stats.Bursts != 0 {
						t.Fatalf("RunOne entered %d bursts (bursting is Run-only)", stats.Bursts)
					}
				}
			}
		})
	}
}

// TestAdaptiveRootSweep sweeps roots under Run against the
// dense reference: the burst fast-path must not disturb the root's
// transcript capture wherever the root lands.
func TestAdaptiveRootSweep(t *testing.T) {
	g := graph.Torus(3, 4)
	for root := 0; root < g.N(); root += 3 {
		want := denseSparseTranscript(t, g, true, 1, root, 8_000_000)
		got := denseSparseTranscript(t, g, false, 1, root, 8_000_000)
		if got != want {
			t.Fatalf("root=%d: adaptive sparse diverges from dense", root)
		}
	}
}

// TestAdaptiveFailureEquivalence: a run that exhausts its tick budget must
// fail identically — same error, same tick, same observable stats — under
// every dispatch and worker count (the burst loop checks the budget on
// every simulated tick, including jumped idle ticks).
func TestAdaptiveFailureEquivalence(t *testing.T) {
	g := graph.Torus(4, 4)
	want, _ := schedTranscript(t, g, dispatchRunOne, 1, 0, 40)
	if !strings.Contains(want, "err: sim: maximum tick count exceeded") {
		t.Fatalf("reference run should fail on the budget:\n%s", want)
	}
	for _, d := range []dispatch{dispatchRun, dispatchFanout} {
		for _, workers := range []int{1, 4} {
			if got, _ := schedTranscript(t, g, d, workers, 0, 40); got != want {
				t.Fatalf("%s workers=%d: failure diverges\nwant:\n%s\ngot:\n%s",
					d.name, workers, want, got)
			}
		}
	}
}

// runDispatchRule runs an engine on g with an observer asserting the
// dispatch rule tick by tick: a tick fans out exactly when its frontier
// (frontier0 for the first tick, then FrontierLen after each tick) holds at
// least threshold nodes. It returns the fanned-out and sequential tick
// counts and the run's statistics.
func runDispatchRule(t *testing.T, g *graph.Graph, opts sim.Options, threshold, frontier0 int,
	factory func(sim.NodeInfo) sim.Automaton) (fanned, sequential int, stats sim.Stats) {
	t.Helper()
	frontier := frontier0
	var lastPar int64
	obs := sim.ObserverFunc(func(tick int, e *sim.Engine) {
		par := e.Stats().ParTicks
		if got, want := par > lastPar, frontier > 0 && frontier >= threshold; got != want {
			t.Errorf("tick %d with a %d-node frontier: fanned out %v, want %v", tick, frontier, got, want)
		}
		if par > lastPar {
			fanned++
		} else {
			sequential++
		}
		lastPar, frontier = par, e.FrontierLen()
	})
	opts.MaxTicks, opts.StopWhenQuiescent = 1000, true
	opts.Observers = []sim.Observer{obs}
	stats, err := sim.New(g, opts, factory).Run()
	if err != nil {
		t.Fatal(err)
	}
	return fanned, sequential, stats
}

// TestDispatchRuleWideFrontier pins the dispatch rule itself: with two
// workers on at least two cores, a tick fans out exactly when its frontier
// holds at least the measured crossover. Node v stays busy for v mod 40
// ticks, so the frontier shrinks by one band of nodes per tick and crosses
// the crossover from above mid-run.
func TestDispatchRuleWideFrontier(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the rule fans out only when Workers ≤ GOMAXPROCS; needs GOMAXPROCS ≥ 2")
	}
	const life = 40
	band := sim.ParallelCrossover/8 + 1 // the frontier crosses between ticks 31 and 32
	g := graph.Ring(life * band)
	frontier := 0 // the first tick's frontier: every busy node
	for v := 0; v < g.N(); v++ {
		if v%life > 0 {
			frontier++
		}
	}
	fanned, sequential, _ := runDispatchRule(t, g, sim.Options{Workers: 2}, sim.ParallelCrossover, frontier,
		func(info sim.NodeInfo) sim.Automaton { return &ticker{left: info.Index % life} })
	if fanned == 0 || sequential == 0 {
		t.Fatalf("the run should cross the crossover: %d fanned-out and %d sequential ticks", fanned, sequential)
	}
}

// TestDispatchRuleAfterIdleJump: the burst reads the dispatch rule before
// every tick, so the tick right after a collapsed idle stretch — whose
// frontier is the wheel slot just promoted — fans out like any other.
// ParallelThreshold 1 fans out every tick with a non-empty frontier, and
// exactly the idle ticks run sequentially.
func TestDispatchRuleAfterIdleJump(t *testing.T) {
	// The holder is busy from the start (a one-node first frontier); the
	// sink never is.
	fanned, idle, stats := runDispatchRule(t, graph.TwoCycle(), sim.Options{Workers: 2, ParallelThreshold: 1}, 1, 1,
		func(info sim.NodeInfo) sim.Automaton {
			if info.Index != 0 {
				return &sinkNode{}
			}
			return &holdTicker{left: 29, hold: 6}
		})
	if fanned < 2 || idle == 0 || stats.Bursts == 0 {
		t.Fatalf("the run should alternate idle stretches and held steps: %d fanned-out, %d idle ticks, %d bursts",
			fanned, idle, stats.Bursts)
	}
}

// TestBurstTelemetry pins the telemetry of a run that bursts: Run on
// a protocol run whose frontier never reaches the crossover must execute
// the entire run as sequential ticks, inside at least one burst, and the
// telemetry must always partition the tick count.
func TestBurstTelemetry(t *testing.T) {
	g := graph.Ring(24)
	eng := sim.New(g, sim.Options{MaxTicks: 8_000_000, Workers: 1}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bursts == 0 {
		t.Fatal("Run never entered a burst on a ring map")
	}
	if stats.ParTicks != 0 || stats.SeqTicks != int64(stats.Ticks) {
		t.Fatalf("one-worker run should be all-sequential: seq=%d par=%d ticks=%d",
			stats.SeqTicks, stats.ParTicks, stats.Ticks)
	}
	if obs := stats.Observables(); obs.SeqTicks != 0 || obs.ParTicks != 0 || obs.Bursts != 0 {
		t.Fatalf("Observables must zero the scheduler telemetry: %+v", obs)
	}
}

// tickLogger records every AfterTick callback.
type tickLogger struct {
	ticks []int
}

func (l *tickLogger) AfterTick(t int, e *sim.Engine) { l.ticks = append(l.ticks, t) }

// TestBurstObserverEveryTick: Observer callbacks must fire exactly once per
// tick, in order, with no skips or duplicates — including ticks executed
// inside a burst and globally idle ticks collapsed by the clock jump.
func TestBurstObserverEveryTick(t *testing.T) {
	g := graph.Ring(24)
	log := &tickLogger{}
	eng := sim.New(g, sim.Options{
		MaxTicks:  8_000_000,
		Workers:   1,
		Observers: []sim.Observer{log},
	}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bursts == 0 {
		t.Fatal("run did not burst; the observer-in-burst contract was not exercised")
	}
	if len(log.ticks) != stats.Ticks {
		t.Fatalf("observer fired %d times over %d ticks", len(log.ticks), stats.Ticks)
	}
	for i, tick := range log.ticks {
		if tick != i {
			t.Fatalf("observer tick %d fired out of order (position %d)", tick, i)
		}
	}
}

// TestBurstTranscriptEveryTick: the Transcript callback must see the same
// tick sequence whether or not the engine bursts.
func TestBurstTranscriptEveryTick(t *testing.T) {
	g := graph.Kautz(2, 2)
	collect := func(d dispatch) []int {
		var ticks []int
		eng := sim.New(g, sim.Options{
			MaxTicks: 8_000_000,
			Workers:  1,
			Transcript: func(e sim.TranscriptEntry) {
				ticks = append(ticks, e.Tick)
			},
		}, gtd.NewFactory(gtd.DefaultConfig()))
		if _, err := d.drive(eng); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		return ticks
	}
	want := collect(dispatchRunOne)
	got := collect(dispatchRun)
	if len(want) != len(got) {
		t.Fatalf("transcript entry counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("transcript tick %d: RunOne %d vs Run %d", i, want[i], got[i])
		}
	}
}

// TestWakeDuringBurst: an Observer arming an automaton mid-burst and
// calling Wake must have the node stepped on the very next tick, exactly
// once — including when Wake is called twice, where the frontier's stamp
// dedup makes it idempotent.
func TestWakeDuringBurst(t *testing.T) {
	g := graph.TwoCycle()
	tk := &ticker{left: 40}
	arm := &armable{}
	var eng *sim.Engine
	arm.tick = func() int { return eng.Tick() }
	const armAt = 12
	obs := sim.ObserverFunc(func(tick int, e *sim.Engine) {
		if tick == armAt {
			arm.armed = true
			e.Wake(1)
			e.Wake(1) // idempotent: the node is already scheduled
		}
	})
	eng = sim.New(g, sim.Options{
		MaxTicks:          1000,
		Workers:           1,
		StopWhenQuiescent: true,
		Observers:         []sim.Observer{obs},
	}, func(info sim.NodeInfo) sim.Automaton {
		if info.Index == 0 {
			return tk
		}
		return arm
	})
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bursts == 0 {
		t.Fatal("run did not burst; Wake-during-burst was not exercised")
	}
	if len(arm.stepped) != 1 || arm.stepped[0] != armAt+1 {
		t.Fatalf("woken node should step exactly once, at tick %d; stepped at %v", armAt+1, arm.stepped)
	}
}

// holdTicker stays busy (and silent) for a fixed number of ticks, like
// ticker, but implements sim.Holder: it reports that it needs stepping only
// every hold+1 ticks, and absorbs the skipped ticks via AdvanceHold.
type holdTicker struct {
	left int
	hold int
}

func (h *holdTicker) Busy() bool { return h.left > 0 }
func (h *holdTicker) Hold() int {
	if h.left <= 0 {
		return -1
	}
	if h.left-1 < h.hold {
		return h.left - 1
	}
	return h.hold
}
func (h *holdTicker) AdvanceHold(n int) { h.left -= n }
func (h *holdTicker) Step(*sim.Ports) {
	if h.left > 0 {
		h.left--
	}
}

// TestHoldSkipsDormantSteps: a Holder automaton reporting a positive hold
// is stepped only when the hold expires; the skipped ticks are replayed via
// AdvanceHold, and the run's tick count — including the quiescence tick —
// is identical to an equivalent per-tick busy automaton's.
func TestHoldSkipsDormantSteps(t *testing.T) {
	g := graph.TwoCycle()
	const life, hold = 30, 4
	run := func(useHold bool) sim.Stats {
		eng := sim.New(g, sim.Options{
			MaxTicks:          1000,
			Workers:           1,
			StopWhenQuiescent: true,
		}, func(info sim.NodeInfo) sim.Automaton {
			if info.Index != 0 {
				return &sinkNode{}
			}
			if useHold {
				return &holdTicker{left: life, hold: hold}
			}
			return &ticker{left: life}
		})
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	plain := run(false)
	held := run(true)
	if plain.Ticks != held.Ticks {
		t.Fatalf("hold scheduling changed the tick count: %d vs %d", plain.Ticks, held.Ticks)
	}
	if held.StepCalls >= plain.StepCalls {
		t.Fatalf("hold scheduling did not reduce steps: %d vs %d", held.StepCalls, plain.StepCalls)
	}
	// life ticks of busyness at one step per hold+1 ticks, plus slack for
	// the first and final partial holds.
	if maxSteps := int64(life/(hold+1) + 2); held.StepCalls > maxSteps {
		t.Fatalf("held automaton stepped %d times, want ≤ %d", held.StepCalls, maxSteps)
	}
}

// TestIdleTickJump: when every busy automaton is dormant, whole ticks have
// an empty frontier; the burst's clock jump must execute them (observers,
// tick count) without dispatching, and quiescence must land on the exact
// same tick as the per-tick engine.
func TestIdleTickJump(t *testing.T) {
	g := graph.TwoCycle()
	build := func(obs []sim.Observer) *sim.Engine {
		return sim.New(g, sim.Options{
			MaxTicks:          1000,
			Workers:           1,
			StopWhenQuiescent: true,
			Observers:         obs,
		}, func(info sim.NodeInfo) sim.Automaton {
			if info.Index != 0 {
				return &sinkNode{}
			}
			return &holdTicker{left: 29, hold: 6}
		})
	}
	log := &tickLogger{}
	auto, err := build([]sim.Observer{log}).Run()
	if err != nil {
		t.Fatal(err)
	}
	forced, err := dispatchRunOne.drive(build(nil))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Ticks != forced.Ticks {
		t.Fatalf("clock jump changed the tick count: Run %d vs RunOne %d", auto.Ticks, forced.Ticks)
	}
	if auto.StepCalls != forced.StepCalls {
		t.Fatalf("Run and RunOne disagree on StepCalls: %d vs %d", auto.StepCalls, forced.StepCalls)
	}
	if len(log.ticks) != auto.Ticks {
		t.Fatalf("observer fired %d times over %d ticks (jumped ticks must still observe)",
			len(log.ticks), auto.Ticks)
	}
}

// TestAdaptiveBurstRing1024 is the CI regression smoke: over a bounded
// window of a 1024-node ring run it asserts, without any wall-clock
// measurement, that (a) Run dispatched sequential burst ticks, (b) the
// sparse frontier plus hold-timer wheel kept step-loop iterations at least
// 10× below the dense sweep, and (c) every observable is bit-identical to
// per-tick RunOne dispatch.
func TestAdaptiveBurstRing1024(t *testing.T) {
	g := graph.Ring(1024)
	run := func(d dispatch) sim.Stats {
		eng := sim.New(g, sim.Options{MaxTicks: 100_000, Workers: 1},
			gtd.NewFactory(gtd.DefaultConfig()))
		_, err := d.drive(eng)
		if !errors.Is(err, sim.ErrMaxTicks) {
			t.Fatalf("window run should end on the tick budget, got %v", err)
		}
		return eng.Stats()
	}
	auto := run(dispatchRun)
	forced := run(dispatchRunOne)
	if auto.SeqTicks == 0 || auto.Bursts == 0 {
		t.Fatalf("Run recorded no bursts: %+v", auto)
	}
	if auto.Observables() != forced.Observables() {
		t.Fatalf("Run vs RunOne observables diverge:\n%+v\n%+v", auto, forced)
	}
	dense := int64(g.N()) * int64(auto.Ticks)
	if auto.StepCalls*10 > dense {
		t.Fatalf("step-loop iterations %d vs dense %d: less than the required 10× drop (%.1f×)",
			auto.StepCalls, dense, float64(dense)/float64(auto.StepCalls))
	}
}
