package sim_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// equivalenceGraphs is the cross-family corpus both equivalence tests run
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

// runTranscript executes the full protocol and renders every root
// transcript entry plus the final statistics into a canonical string.
func runTranscript(t *testing.T, g *graph.Graph, workers int) string {
	t.Helper()
	var b strings.Builder
	eng := sim.New(g, sim.Options{
		MaxTicks:          8_000_000,
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
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	fmt.Fprintf(&b, "stats: ticks=%d msgs=%d steps=%d maxactive=%d\n",
		stats.Ticks, stats.NonBlankMessages, stats.StepCalls, stats.MaxActive)
	return b.String()
}

// TestParallelMatchesSequentialTranscripts is the engine's determinism
// contract: for every graph family and every worker count, the root
// transcript and the run statistics must be bit-identical to the
// sequential engine's.
func TestParallelMatchesSequentialTranscripts(t *testing.T) {
	for name, g := range equivalenceGraphs(t) {
		t.Run(name, func(t *testing.T) {
			want := runTranscript(t, g, 1)
			for _, workers := range []int{2, 4, 8} {
				if got := runTranscript(t, g, workers); got != want {
					t.Fatalf("workers=%d transcript diverges from sequential\nsequential:\n%s\nparallel:\n%s",
						workers, want, got)
				}
			}
		})
	}
}

// TestParallelNaiveMatchesTracked forces the worst case for the merge: in
// naive mode every processor steps every tick, so every shard is full and
// every pending-flag store is contended.
func TestParallelNaiveMatchesTracked(t *testing.T) {
	g := graph.Torus(5, 5)
	run := func(naive bool, workers int) (int, int64, int64) {
		eng := sim.New(g, sim.Options{
			MaxTicks:          8_000_000,
			Naive:             naive,
			Workers:           workers,
			ParallelThreshold: 1,
		}, gtd.NewFactory(gtd.DefaultConfig()))
		stats, err := eng.Run()
		if err != nil {
			t.Fatalf("naive=%v workers=%d: %v", naive, workers, err)
		}
		return stats.Ticks, stats.NonBlankMessages, stats.StepCalls
	}
	seqTicks, seqMsgs, _ := run(false, 1)
	for _, workers := range []int{2, 4, 8} {
		ticks, msgs, steps := run(true, workers)
		if ticks != seqTicks || msgs != seqMsgs {
			t.Fatalf("naive workers=%d: (%d ticks, %d msgs) vs sequential (%d, %d)",
				workers, ticks, msgs, seqTicks, seqMsgs)
		}
		if steps != int64(g.N())*int64(ticks) {
			t.Fatalf("naive mode must step every node every tick: %d != %d·%d", steps, g.N(), ticks)
		}
	}
}

// TestParallelRunOneInterleaving drives the parallel engine tick by tick
// through RunOne, mixing in observer reads of PendingIn, to check the
// barrier leaves the engine in a consistent state between pulses.
func TestParallelRunOneInterleaving(t *testing.T) {
	g := graph.Torus(4, 4)
	var observed int
	eng := sim.New(g, sim.Options{
		MaxTicks:          4_000_000,
		Workers:           4,
		ParallelThreshold: 1,
		Observers: []sim.Observer{sim.ObserverFunc(func(tick int, e *sim.Engine) {
			for v := 0; v < g.N(); v++ {
				for p := 1; p <= g.Delta(); p++ {
					m := e.PendingIn(v, p)
					if !m.IsBlank() {
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
	if int64(observed) != eng.Stats().NonBlankMessages {
		t.Fatalf("observer saw %d pending symbols, engine delivered %d", observed, eng.Stats().NonBlankMessages)
	}
}

// TestParallelValidatePanicPropagates checks that a panic raised inside a
// worker goroutine (here: the model validator rejecting an oversized
// message) is re-raised on the calling goroutine, where harnesses like the
// speed-ablation experiment can recover it — and that the worker pool is
// released before the unwind, so an abandoned engine leaks nothing.
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
			Workers:           4,
			ParallelThreshold: 1,
			StopWhenQuiescent: true,
		}, factory)
		defer func() {
			if recover() == nil {
				t.Fatal("expected the validator panic to reach the caller")
			}
		}()
		_, _ = eng.Run()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("worker goroutines leaked after the panic: %d before, %d after", before, got)
	}
}

// TestObserverPanicReleasesPool checks the pool is also released when the
// panic originates outside the parallel step itself — here an observer
// callback firing after the pool is already up.
func TestObserverPanicReleasesPool(t *testing.T) {
	g := graph.Torus(5, 5)
	before := runtime.NumGoroutine()
	func() {
		eng := sim.New(g, sim.Options{
			MaxTicks:          4_000_000,
			Workers:           4,
			ParallelThreshold: 1,
			Observers: []sim.Observer{sim.ObserverFunc(func(tick int, e *sim.Engine) {
				if tick == 40 {
					panic("observer bailout")
				}
			})},
		}, gtd.NewFactory(gtd.DefaultConfig()))
		defer func() {
			if recover() == nil {
				t.Fatal("expected the observer panic to reach the caller")
			}
		}()
		_, _ = eng.Run()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("pool leaked after observer panic: %d before, %d after", before, got)
	}
}

// TestEngineCloseReleasesPool covers the one lifecycle hole the automatic
// release cannot: a caller abandoning a healthy engine mid-run.
func TestEngineCloseReleasesPool(t *testing.T) {
	g := graph.Torus(5, 5)
	before := runtime.NumGoroutine()
	eng := sim.New(g, sim.Options{
		MaxTicks:          4_000_000,
		Workers:           4,
		ParallelThreshold: 1,
	}, gtd.NewFactory(gtd.DefaultConfig()))
	for i := 0; i < 50; i++ {
		if _, err := eng.RunOne(); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("Close must release the pool: %d goroutines before, %d after", before, got)
	}
	// The engine must remain usable: the pool restarts lazily.
	if _, err := eng.Run(); err != nil {
		t.Fatalf("run after Close: %v", err)
	}
}

// floodNode keeps every wire busy with an invalid symbol (an out-of-range
// snake port) so the validator must fire, eventually on a non-first shard.
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
