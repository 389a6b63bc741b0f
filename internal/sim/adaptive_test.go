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

// runOneLoop drives eng to completion tick by tick through RunOne: no
// burst and no idle-tick jump.
func runOneLoop(eng *sim.Engine) (sim.Stats, error) {
	for {
		more, err := eng.RunOne()
		if err != nil || !more {
			return eng.Stats(), err
		}
	}
}

// protocol renders the protocol statistics of s: every field the
// determinism guarantee covers.
func protocol(s sim.Stats) string {
	return fmt.Sprintf("ticks=%d msgs=%d steps=%d maxactive=%d dropped=%d",
		s.Ticks, s.NonBlankMessages, s.StepCalls, s.MaxActive, s.Dropped)
}

// schedTranscript runs the full protocol driven by drive (Run or
// runOneLoop) and renders the root transcript, the protocol statistics,
// and the failure outcome into a canonical string.
func schedTranscript(t *testing.T, g *graph.Graph, drive func(*sim.Engine) (sim.Stats, error), maxTicks int) string {
	t.Helper()
	var rec transcriptRecorder
	eng := sim.New(g, sim.Options{MaxTicks: maxTicks, Transcript: rec.record}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := drive(eng)
	fmt.Fprintf(&rec.b, "stats: %s\n", protocol(stats))
	fmt.Fprintf(&rec.b, "err: %v\n", err)
	return rec.b.String()
}

// TestAdaptiveForcedEquivalence is the burst loop's core contract: for
// every graph family, Run (back-to-back ticks, idle ticks collapsed to a
// clock jump) must produce transcripts, protocol statistics, and
// termination behaviour bit-identical to a forced per-tick RunOne loop.
func TestAdaptiveForcedEquivalence(t *testing.T) {
	for name, g := range equivalenceGraphs(t) {
		t.Run(name, func(t *testing.T) {
			want := schedTranscript(t, g, runOneLoop, 8_000_000)
			if got := schedTranscript(t, g, (*sim.Engine).Run, 8_000_000); got != want {
				t.Fatalf("Run diverges from RunOne:\nwant:\n%s\ngot:\n%s", want, got)
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
		want := denseSparseTranscript(t, g, true, root, 8_000_000)
		got := denseSparseTranscript(t, g, false, root, 8_000_000)
		if got != want {
			t.Fatalf("root=%d: adaptive sparse diverges from dense", root)
		}
	}
}

// TestAdaptiveFailureEquivalence: a run that exhausts its tick budget must
// fail identically — same error, same tick, same protocol stats — under Run
// and RunOne (the burst loop checks the budget on every simulated tick,
// including jumped idle ticks).
func TestAdaptiveFailureEquivalence(t *testing.T) {
	g := graph.Torus(4, 4)
	want := schedTranscript(t, g, runOneLoop, 40)
	if !strings.Contains(want, "err: sim: maximum tick count exceeded") {
		t.Fatalf("reference run should fail on the budget:\n%s", want)
	}
	if got := schedTranscript(t, g, (*sim.Engine).Run, 40); got != want {
		t.Fatalf("Run failure diverges\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// tickLogger records every AfterTick callback.
type tickLogger struct {
	ticks []int
}

func (l *tickLogger) AfterTick(t int, e *sim.Engine) { l.ticks = append(l.ticks, t) }

// TestBurstObserverEveryTick: Observer callbacks must fire exactly once per
// tick, in order, with no skips or duplicates — including ticks executed
// inside Run's burst and globally idle ticks collapsed by the clock jump.
func TestBurstObserverEveryTick(t *testing.T) {
	g := graph.Ring(24)
	log := &tickLogger{}
	eng := sim.New(g, sim.Options{
		MaxTicks:  8_000_000,
		Observers: []sim.Observer{log},
	}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
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
// tick sequence under Run as under RunOne.
func TestBurstTranscriptEveryTick(t *testing.T) {
	g := graph.Kautz(2, 2)
	collect := func(drive func(*sim.Engine) (sim.Stats, error)) []int {
		var ticks []int
		eng := sim.New(g, sim.Options{
			MaxTicks: 8_000_000,
			Transcript: func(e sim.TranscriptEntry) {
				ticks = append(ticks, e.Tick)
			},
		}, gtd.NewFactory(gtd.DefaultConfig()))
		if _, err := drive(eng); err != nil {
			t.Fatal(err)
		}
		return ticks
	}
	want := collect(runOneLoop)
	got := collect((*sim.Engine).Run)
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
// once — including when Wake is called twice, where Wake's binary search
// finds the node already in the frontier.
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
		StopWhenQuiescent: true,
		Observers:         []sim.Observer{obs},
	}, func(info sim.NodeInfo) sim.Automaton {
		if info.Index == 0 {
			return tk
		}
		return arm
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
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
// an empty frontier; Run's clock jump must execute them (observers, tick
// count) without stepping, and quiescence must land on the exact same tick
// as the per-tick RunOne loop.
func TestIdleTickJump(t *testing.T) {
	g := graph.TwoCycle()
	build := func(obs []sim.Observer) *sim.Engine {
		return sim.New(g, sim.Options{
			MaxTicks:          1000,
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
	forced, err := runOneLoop(build(nil))
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
// measurement, that (a) the sparse frontier plus hold-timer wheel kept
// step-loop iterations at least 10× below the dense sweep, and (b) every
// observable of Run is bit-identical to the per-tick RunOne loop.
func TestAdaptiveBurstRing1024(t *testing.T) {
	g := graph.Ring(1024)
	run := func(drive func(*sim.Engine) (sim.Stats, error)) sim.Stats {
		eng := sim.New(g, sim.Options{MaxTicks: 100_000}, gtd.NewFactory(gtd.DefaultConfig()))
		_, err := drive(eng)
		if !errors.Is(err, sim.ErrMaxTicks) {
			t.Fatalf("window run should end on the tick budget, got %v", err)
		}
		return eng.Stats()
	}
	auto := run((*sim.Engine).Run)
	forced := run(runOneLoop)
	if protocol(auto) != protocol(forced) {
		t.Fatalf("Run vs RunOne observables diverge:\n%+v\n%+v", auto, forced)
	}
	dense := int64(g.N()) * int64(auto.Ticks)
	if auto.StepCalls*10 > dense {
		t.Fatalf("step-loop iterations %d vs dense %d: less than the required 10× drop (%.1f×)",
			auto.StepCalls, dense, float64(dense)/float64(auto.StepCalls))
	}
}
