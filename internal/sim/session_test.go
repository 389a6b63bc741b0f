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

// transcriptRecorder renders root transcript entries and final statistics
// into a canonical string, and is retargetable so one engine can record
// several runs (Reset reuse).
type transcriptRecorder struct {
	b strings.Builder
}

func (r *transcriptRecorder) record(e sim.TranscriptEntry) {
	fmt.Fprintf(&r.b, "%d:", e.Tick)
	for p, m := range e.In {
		if !m.IsBlank() {
			fmt.Fprintf(&r.b, "i%d=%v;", p, m)
		}
	}
	for p, m := range e.Out {
		if !m.IsBlank() {
			fmt.Fprintf(&r.b, "o%d=%v;", p, m)
		}
	}
	r.b.WriteByte('\n')
}

func (r *transcriptRecorder) finish(t *testing.T, eng *sim.Engine) string {
	t.Helper()
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&r.b, "stats: ticks=%d msgs=%d steps=%d maxactive=%d\n",
		stats.Ticks, stats.NonBlankMessages, stats.StepCalls, stats.MaxActive)
	out := r.b.String()
	r.b.Reset()
	return out
}

// newRecordedEngine builds an engine whose transcript feeds rec, configured
// like the equivalence corpus runs.
func newRecordedEngine(g *graph.Graph, rec *transcriptRecorder) *sim.Engine {
	return sim.New(g, sim.Options{MaxTicks: 8_000_000, Transcript: rec.record}, gtd.NewFactory(gtd.DefaultConfig()))
}

// runTranscript executes the full protocol on a fresh engine and renders
// every root transcript entry plus the final statistics into a canonical
// string.
func runTranscript(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var rec transcriptRecorder
	return rec.finish(t, newRecordedEngine(g, &rec))
}

// equivalenceGraphs is the cross-family corpus the equivalence tests run
// the full GTD protocol on.
func equivalenceGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{
		"ring12":    graph.Ring(12),
		"biring9":   graph.BiRing(9),
		"torus4x5":  graph.Torus(4, 5),
		"kautz2.2":  graph.Kautz(2, 2),
		"kautz3.2":  graph.Kautz(3, 2),
		"hypercube": graph.Hypercube(4),
		"random24":  graph.Random(24, 3, 52, 7),
		"random40":  graph.Random(40, 4, 100, 11),
	}
	gs["treeloop"] = graph.TreeLoop(3, graph.RandomPermutation(8, 5))
	// Irregular families: skewed degrees and diameters stress scheduling
	// paths the regular families never reach (saturated hubs, deep stubs).
	gs["er20"] = graph.ErdosRenyi(20, 5, 0.15, 7)
	gs["ba20"] = graph.BarabasiAlbert(20, 2, 5, 9)
	gs["astier24"] = graph.ASTiers(24, 6, 3)
	gs["chordal16"] = graph.ChordalRing(16, 3)
	return gs
}

// TestResetMatchesFreshTranscripts is the session-reuse face of the
// determinism contract: an engine reused via Reset — across different graph
// families and repeated runs of the same graph — must produce transcripts
// and statistics bit-identical to a fresh engine.
func TestResetMatchesFreshTranscripts(t *testing.T) {
	var rec transcriptRecorder
	var eng *sim.Engine
	for name, g := range equivalenceGraphs(t) {
		want := runTranscript(t, g)
		for rep := 0; rep < 2; rep++ {
			if eng == nil {
				eng = newRecordedEngine(g, &rec)
			} else {
				eng.Reset(g)
			}
			if got := rec.finish(t, eng); got != want {
				t.Fatalf("%s rep=%d: reused transcript diverges from fresh\nfresh:\n%s\nreused:\n%s",
					name, rep, want, got)
			}
		}
	}
}

// TestResetRootedMatchesFresh checks the per-run root override against
// fresh engines across every root of a graph.
func TestResetRootedMatchesFresh(t *testing.T) {
	g := graph.Torus(3, 4)
	var rec transcriptRecorder
	eng := newRecordedEngine(g, &rec)
	for root := 0; root < g.N(); root++ {
		var fresh transcriptRecorder
		fe := sim.New(g, sim.Options{
			MaxTicks:   8_000_000,
			Root:       root,
			Transcript: fresh.record,
		}, gtd.NewFactory(gtd.DefaultConfig()))
		want := fresh.finish(t, fe)
		eng.ResetRooted(g, root)
		if got := rec.finish(t, eng); got != want {
			t.Fatalf("root %d: reused transcript diverges from fresh", root)
		}
	}
}

// TestResetAcrossSizes exercises buffer growth and shrinkage: the engine
// must recycle (or grow) its node and wire buffers as the graph size swings
// while staying bit-identical to fresh engines.
func TestResetAcrossSizes(t *testing.T) {
	sizes := []int{8, 40, 12, 64, 8}
	var rec transcriptRecorder
	var eng *sim.Engine
	for _, n := range sizes {
		g := graph.Ring(n)
		want := runTranscript(t, g)
		if eng == nil {
			eng = newRecordedEngine(g, &rec)
		} else {
			eng.Reset(g)
		}
		if got := rec.finish(t, eng); got != want {
			t.Fatalf("ring %d: reused transcript diverges from fresh", n)
		}
	}
	// Shrink across a delta change too (ring δ=1... use torus δ=4).
	g := graph.Torus(4, 5)
	want := runTranscript(t, g)
	eng.Reset(g)
	if got := rec.finish(t, eng); got != want {
		t.Fatal("torus after rings: reused transcript diverges from fresh")
	}
}

// TestResetPlaneLifecycle pins the wire-plane recycling contract across
// graph-size changes: growing N reallocates the planes (capacity rises to
// the new footprint), shrinking N or changing δ within the allocated
// footprint reuses them (capacity must NOT move). Progress exposes the
// capacity (PlaneCap) precisely so this is assertable; the
// transcripts are checked against fresh engines throughout, so reuse is
// never traded against equivalence.
func TestResetPlaneLifecycle(t *testing.T) {
	var rec transcriptRecorder
	run := func(eng *sim.Engine, g *graph.Graph) string {
		t.Helper()
		want := runTranscript(t, g)
		if got := rec.finish(t, eng); got != want {
			t.Fatalf("N=%d δ=%d: reused transcript diverges from fresh", g.N(), g.Delta())
		}
		return want
	}

	g := graph.Ring(32) // 32 nodes × δ=2 = 64 port slots
	eng := newRecordedEngine(g, &rec)
	run(eng, g)
	cap0 := eng.Progress().PlaneCap
	if cap0 < 64 {
		t.Fatalf("ring32 plane capacity %d < 64 slots", cap0)
	}

	// Shrink N: planes must be reused, not reallocated.
	eng.Reset(graph.Ring(8))
	run(eng, graph.Ring(8))
	if c := eng.Progress().PlaneCap; c != cap0 {
		t.Fatalf("shrink N=32->8 moved plane capacity %d -> %d (want reuse)", cap0, c)
	}

	// Change δ within the footprint: hypercube(4) is 16 nodes × δ=4 = 64
	// slots ≤ cap0, so capacity must again hold still.
	eng.Reset(graph.Hypercube(4))
	run(eng, graph.Hypercube(4))
	if c := eng.Progress().PlaneCap; c != cap0 {
		t.Fatalf("delta change 2->4 moved plane capacity %d -> %d (want reuse)", cap0, c)
	}

	// Grow past the footprint: planes must reallocate.
	big := graph.Hypercube(6) // 64 × 6 = 384 slots
	eng.Reset(big)
	run(eng, big)
	capBig := eng.Progress().PlaneCap
	if capBig < 384 || capBig < cap0 {
		t.Fatalf("grow to 384 slots left plane capacity at %d (was %d)", capBig, cap0)
	}
}

// TestEpochRebaseEquivalence forces the 32-bit epoch planes through many
// wrap-rebase cycles inside short runs and demands transcripts
// bit-identical to an engine that never rebases. The limit of 48 rebases
// every 32 ticks — thousands of times over these runs — so any stamp whose
// liveness the rebase miscomputes (frontier dedup, hold wake-ups, lastStep
// replay ages) diverges immediately. Faulted runs ride along because drop
// decisions hash the real tick counter, which must stay independent of the
// rebased epoch.
func TestEpochRebaseEquivalence(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Ring(48),
		graph.Torus(4, 5),
		graph.Hypercube(4),
	}
	for _, g := range graphs {
		want := runTranscript(t, g)
		var rec transcriptRecorder
		eng := newRecordedEngine(g, &rec)
		eng.SetEpochLimitForTest(48)
		if got := rec.finish(t, eng); got != want {
			t.Errorf("N=%d δ=%d: transcript diverges under forced epoch rebases", g.N(), g.Delta())
		}
		// A reused engine keeps rebasing across runs.
		eng.Reset(g)
		if got := rec.finish(t, eng); got != want {
			t.Errorf("N=%d δ=%d: reused transcript diverges under forced epoch rebases", g.N(), g.Delta())
		}
	}
	// Faulted window: drops keyed on the tick counter must be unaffected.
	g := graph.Ring(256)
	plan := &sim.FaultPlan{Seed: 7, DropRate: 0.002}
	fingerprint := func(limited bool) string {
		var rec transcriptRecorder
		eng := sim.New(g, sim.Options{
			MaxTicks:   1500,
			Faults:     plan,
			Transcript: rec.record,
		}, gtd.NewFactory(gtd.DefaultConfig()))
		if limited {
			eng.SetEpochLimitForTest(48)
		}
		_, err := eng.Run()
		if !errors.Is(err, sim.ErrMaxTicks) {
			t.Fatalf("faulted window: want ErrMaxTicks, got %v", err)
		}
		return rec.b.String()
	}
	if fingerprint(false) != fingerprint(true) {
		t.Error("faulted windowed transcript diverges under forced epoch rebases")
	}
}

// TestResetAfterMaxTicksError checks that an engine whose run failed on the
// tick budget is still cleanly reusable: stale in-flight symbols must not
// leak into the next run, and the retained explicit budget must make the
// rerun fail bit-identically (determinism of failure under reuse).
func TestResetAfterMaxTicksError(t *testing.T) {
	g := graph.Torus(4, 4)
	var rec transcriptRecorder
	eng := sim.New(g, sim.Options{
		MaxTicks:   25, // protocol cannot finish
		Transcript: rec.record,
	}, gtd.NewFactory(gtd.DefaultConfig()))
	runOnce := func() (string, sim.Stats, error) {
		stats, err := eng.Run()
		out := rec.b.String()
		rec.b.Reset()
		return out, stats, err
	}
	t1, s1, err := runOnce()
	if !errors.Is(err, sim.ErrMaxTicks) {
		t.Fatalf("expected ErrMaxTicks, got %v", err)
	}
	eng.Reset(g)
	t2, s2, err := runOnce()
	if !errors.Is(err, sim.ErrMaxTicks) {
		t.Fatalf("retained explicit budget must fail identically, got %v", err)
	}
	if t1 != t2 || s1 != s2 {
		t.Fatalf("failed reruns diverge: stats %+v vs %+v\nfirst:\n%s\nsecond:\n%s", s1, s2, t1, t2)
	}
}

// TestResetCancel checks the Cancel hook: a cancelled run returns the
// cancellation error (wrapped) promptly and the engine remains reusable.
func TestResetCancel(t *testing.T) {
	g := graph.Torus(4, 4)
	stop := errors.New("stop requested")
	var armed bool
	var rec transcriptRecorder
	eng := sim.New(g, sim.Options{
		MaxTicks:   8_000_000,
		Transcript: rec.record,
		Cancel: func() error {
			if armed {
				return stop
			}
			return nil
		},
	}, gtd.NewFactory(gtd.DefaultConfig()))
	// Let it run a few ticks, then cancel.
	for i := 0; i < 10; i++ {
		if _, err := eng.RunOne(); err != nil {
			t.Fatal(err)
		}
	}
	armed = true
	if _, err := eng.Run(); !errors.Is(err, stop) {
		t.Fatalf("expected the cancellation error, got %v", err)
	}
	// The engine must be cleanly reusable after cancellation.
	armed = false
	rec.b.Reset()
	want := runTranscript(t, g)
	eng.Reset(g)
	if got := rec.finish(t, eng); got != want {
		t.Fatal("post-cancel reuse diverges from fresh")
	}
}
