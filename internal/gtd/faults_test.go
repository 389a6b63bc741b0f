package gtd_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// The paper's model assumes perfectly reliable synchronous wires; the
// protocol is not, and is not supposed to be, fault-tolerant. What a
// production implementation owes its user is the weaker but critical
// property these tests pin down empirically: across a deterministic grid of
// injected faults, a run either fails loudly (engine error, protocol
// assertion, transcript-decoding error) or — when the dropped traffic was
// genuinely redundant flood copies — still maps exactly. It never produces
// a silently wrong topology.
//
// The measured outcome distribution on the torus grid is itself
// informative: roughly 40% of single-tick output drops are absorbed by the
// protocol's flood redundancy (losing growing-snake branches, duplicate
// KILL coverage), the rest stall a transaction and surface as a deadlock or
// a dying-snake assertion.

// faultyNode wraps a Processor and blanks everything it would have emitted
// at one chosen tick — a transient transmitter brown-out.
type faultyNode struct {
	inner    sim.Automaton
	delta    int
	tick     int
	dropAt   int
	anything bool
}

func (f *faultyNode) Busy() bool { return f.inner.Busy() }

func (f *faultyNode) Step(io *sim.Ports) {
	if f.tick == f.dropAt {
		// Step on a harness copy of the inputs and discard its output.
		h := sim.NewPorts(inMessages(io, f.delta))
		f.inner.Step(h)
		for p := 1; p <= f.delta; p++ {
			if m := h.OutMessage(p); !m.IsBlank() {
				f.anything = true
			}
		}
	} else {
		f.inner.Step(io)
	}
	f.tick++
}

// inMessages materialises every in-port of io.
func inMessages(io *sim.Ports, delta int) []wire.Message {
	in := make([]wire.Message, delta)
	for p := range in {
		in[p] = io.InMessage(p + 1)
	}
	return in
}

// copyOut writes what the harness h emitted into io's out side.
func copyOut(io, h *sim.Ports, delta int) {
	for p := 1; p <= delta; p++ {
		m := h.OutMessage(p)
		for k := 0; k < 3; k++ {
			if m.HasGrowKind(k) {
				io.SetGrow(p, k, wire.PackGrowChar(m.Grow[k]))
			}
			if m.HasDieKind(k) {
				io.SetDie(p, k, wire.PackDieChar(m.Die[k]))
			}
		}
		if m.HasLoop() {
			io.SetLoop(p, wire.PackLoopToken(m.Loop))
		}
		if m.HasDFS() {
			io.SetDFS(p, m.DFS.Out)
		}
		if m.Kill {
			io.SetKill(p)
		}
	}
}

// runWithFault executes GTD with node victim dropping its output at the
// given tick; it classifies how the run ended.
func runWithFault(g *graph.Graph, victim, dropAt int) (outcome string) {
	defer func() {
		if r := recover(); r != nil {
			outcome = "panic"
		}
	}()
	m := mapper.New(g.Delta())
	var fn *faultyNode
	eng := sim.New(g, sim.Options{
		Root:       0,
		MaxTicks:   400_000,
		Transcript: m.Process,
	}, func(info sim.NodeInfo) sim.Automaton {
		p := gtd.New(func() *gtd.Config { c := gtd.DefaultConfig(); return &c }(), info)
		if info.Index == victim {
			fn = &faultyNode{inner: p, delta: info.Delta, dropAt: dropAt}
			return fn
		}
		return p
	})
	if _, err := eng.Run(); err != nil {
		return "engine-error"
	}
	mapped, err := m.Finish()
	if err != nil {
		return "mapper-error"
	}
	exact := g.IsomorphicFrom(0, mapped, 0)
	switch {
	case fn == nil || !fn.anything:
		if exact {
			return "no-fault-exact"
		}
		return "SILENT-WRONG"
	case exact:
		// The dropped symbols were redundant (losing flood branches,
		// duplicate KILL coverage): an exact map is legitimate.
		return "redundant-exact"
	default:
		return "SILENT-WRONG"
	}
}

// TestFaultDropNeverSilentlyWrong sweeps (victim × tick) drop injections
// and asserts the safety property: no combination yields a wrong topology
// without an error. The distribution is logged for the record.
func TestFaultDropNeverSilentlyWrong(t *testing.T) {
	g := graph.Torus(3, 4)
	dist := map[string]int{}
	for victim := 1; victim < g.N(); victim++ {
		for _, dropAt := range []int{5, 40, 200, 800, 2000} {
			o := runWithFault(g, victim, dropAt)
			dist[o]++
			if o == "SILENT-WRONG" {
				t.Errorf("victim %d drop@%d produced a wrong map silently", victim, dropAt)
			}
		}
	}
	t.Logf("drop-fault outcomes: %v", dist)
	if dist["engine-error"]+dist["panic"]+dist["mapper-error"] == 0 {
		t.Error("expected at least some loud failures across the grid (injections too weak?)")
	}
	if dist["redundant-exact"] == 0 {
		t.Error("expected some drops to be absorbed by flood redundancy")
	}
}

// TestFaultDropRandomGraph repeats the sweep on an irregular graph.
func TestFaultDropRandomGraph(t *testing.T) {
	g := graph.Random(12, 3, 26, 17)
	for victim := 1; victim < g.N(); victim += 2 {
		for _, dropAt := range []int{60, 300, 1500} {
			if o := runWithFault(g, victim, dropAt); o == "SILENT-WRONG" {
				t.Errorf("victim %d drop@%d produced a wrong map silently", victim, dropAt)
			}
		}
	}
}

// irregularFaultGraphs is the corpus the engine-level fault-plan tests
// sweep: one instance of each irregular family, sized so a clean run takes
// thousands of ticks (a tick-100 crash is genuinely mid-map).
func irregularFaultGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"er":      graph.ErdosRenyi(18, 5, 0.15, 7),
		"ba":      graph.BarabasiAlbert(18, 2, 5, 9),
		"astier":  graph.ASTiers(21, 6, 3),
		"chordal": graph.ChordalRing(15, 3),
	}
}

// runWithPlan executes GTD under an engine-level fault plan (message loss,
// fail-stop crashes) and classifies how the run ended, in the same outcome
// vocabulary as runWithFault. The tick budget bounds every run: "no hang"
// is enforced structurally.
func runWithPlan(g *graph.Graph, plan *sim.FaultPlan) (outcome string) {
	defer func() {
		if r := recover(); r != nil {
			outcome = "panic"
		}
	}()
	m := mapper.New(g.Delta())
	eng := sim.New(g, sim.Options{
		Root:       0,
		MaxTicks:   100_000,
		Faults:     plan,
		Transcript: m.Process,
	}, gtd.NewFactory(gtd.DefaultConfig()))
	stats, err := eng.Run()
	if err != nil {
		return "engine-error"
	}
	mapped, err := m.Finish()
	if err != nil {
		return "mapper-error"
	}
	exact := g.IsomorphicFrom(0, mapped, 0)
	switch {
	case stats.Dropped == 0 && len(plan.Crashes) == 0:
		if exact {
			return "no-fault-exact"
		}
		return "SILENT-WRONG"
	case exact:
		return "redundant-exact"
	default:
		return "SILENT-WRONG"
	}
}

// TestFaultPlanDropNeverSilentlyWrong sweeps engine-level message loss over
// the irregular families: across rates and fault seeds, a lossy run either
// absorbs the losses (exact map) or fails loudly — never a silently wrong
// topology.
func TestFaultPlanDropNeverSilentlyWrong(t *testing.T) {
	dist := map[string]int{}
	for name, g := range irregularFaultGraphs() {
		for _, rate := range []float64{0.0005, 0.005, 0.05} {
			for seed := int64(1); seed <= 4; seed++ {
				o := runWithPlan(g, &sim.FaultPlan{Seed: seed, DropRate: rate})
				dist[o]++
				if o == "SILENT-WRONG" {
					t.Errorf("%s rate=%g seed=%d produced a wrong map silently", name, rate, seed)
				}
			}
		}
	}
	t.Logf("drop-plan outcomes: %v", dist)
	if dist["engine-error"]+dist["panic"]+dist["mapper-error"] == 0 {
		t.Error("expected loud failures across the drop grid (injections too weak?)")
	}
}

// TestFaultPlanCrashMidMap crashes a non-root node mid-map on every
// irregular family. The protocol cannot finish without the victim, so every
// run must fail cleanly — a deadlock/budget engine error, a decoder error,
// or a protocol assertion — within the tick budget.
func TestFaultPlanCrashMidMap(t *testing.T) {
	for name, g := range irregularFaultGraphs() {
		for _, victim := range []int{1, g.N() / 2, g.N() - 1} {
			o := runWithPlan(g, &sim.FaultPlan{Crashes: []sim.Crash{{Node: victim, Tick: 100}}})
			switch o {
			case "engine-error", "mapper-error", "panic":
				// Loud, classified, bounded: exactly what a dead node owes.
			default:
				t.Errorf("%s crash victim %d: outcome %q, want a loud failure", name, victim, o)
			}
		}
	}
}

// TestFaultPlanEngineReuseAfterFailure pins the reuse contract the session
// layer depends on: an engine whose run was wrecked by faults — crash
// deadlock or heavy loss — must, after SetFaults(nil) and Reset, produce a
// run bit-identical to a fresh engine's, and its worker pool must not leak
// across the failure (checked with a real multi-worker pool).
func TestFaultPlanEngineReuseAfterFailure(t *testing.T) {
	g := graph.BarabasiAlbert(18, 2, 5, 9)
	plans := []*sim.FaultPlan{
		{Crashes: []sim.Crash{{Node: 9, Tick: 100}}},
		{Seed: 3, DropRate: 0.05},
	}
	reference := func() (string, *graph.Graph) {
		var b strings.Builder
		m := mapper.New(g.Delta())
		eng := sim.New(g, sim.Options{
			MaxTicks: 100_000,
			Workers:  4,
			Transcript: func(e sim.TranscriptEntry) {
				m.Process(e)
				fmt.Fprintf(&b, "%d:%v%v\n", e.Tick, e.In, e.Out)
			},
		}, gtd.NewFactory(gtd.DefaultConfig()))
		stats, err := eng.Run()
		if err != nil {
			t.Fatalf("clean reference run failed: %v", err)
		}
		mapped, err := m.Finish()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "ticks=%d msgs=%d\n", stats.Ticks, stats.NonBlankMessages)
		return b.String(), mapped
	}
	want, wantMapped := reference()
	if !g.IsomorphicFrom(0, wantMapped, 0) {
		t.Fatal("clean reference run did not map exactly")
	}

	for i, plan := range plans {
		leakCheck(t, fmt.Sprintf("plan-%d", i), func() {
			var b strings.Builder
			m := mapper.New(g.Delta())
			var record bool
			eng := sim.New(g, sim.Options{
				MaxTicks:   100_000,
				Workers:    4,
				RetainPool: true,
				Faults:     plan,
				Transcript: func(e sim.TranscriptEntry) {
					m.Process(e)
					if record {
						fmt.Fprintf(&b, "%d:%v%v\n", e.Tick, e.In, e.Out)
					}
				},
			}, gtd.NewFactory(gtd.DefaultConfig()))
			defer eng.Close()
			if _, err := eng.Run(); err == nil {
				if _, err := m.Finish(); err == nil {
					t.Fatalf("plan %d: faulted run must fail", i)
				}
			}
			// Clear the faults and reuse the engine: the rerun must be
			// bit-identical to the fresh reference.
			eng.SetFaults(nil)
			eng.Reset(g)
			m = mapper.New(g.Delta())
			record = true
			stats, err := eng.Run()
			if err != nil {
				t.Fatalf("plan %d: reused engine failed: %v", i, err)
			}
			mapped, err := m.Finish()
			if err != nil {
				t.Fatalf("plan %d: reused engine decode failed: %v", i, err)
			}
			if !g.IsomorphicFrom(0, mapped, 0) {
				t.Fatalf("plan %d: reused engine did not map exactly", i)
			}
			fmt.Fprintf(&b, "ticks=%d msgs=%d\n", stats.Ticks, stats.NonBlankMessages)
			if got := b.String(); got != want {
				t.Fatalf("plan %d: reused engine diverges from fresh:\nfresh:\n%s\nreused:\n%s", i, want, got)
			}
		})
	}
}

// leakCheck runs fn and asserts the goroutine count settles back to its
// starting level afterwards (the engine worker pool must not survive an
// injected failure).
func leakCheck(t *testing.T, name string, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%s: leaked worker goroutines: %d before, %d after", name, before, got)
	}
}

// corruptIn flips a port number inside one arriving IG character — a wire
// bit-flip at the receiver boundary.
type corruptIn struct {
	inner sim.Automaton
	delta int
	tick  int
	at    int
	did   bool
}

func (c *corruptIn) Busy() bool { return c.inner.Busy() }

func (c *corruptIn) Step(io *sim.Ports) {
	at := c.tick == c.at
	c.tick++
	if !at {
		c.inner.Step(io)
		return
	}
	in := inMessages(io, c.delta)
	for p := range in {
		i := wire.GrowIndex(wire.KindIG)
		if in[p].HasGrowKind(i) && in[p].Grow[i].Part != wire.Tail {
			in[p].Grow[i].Out = in[p].Grow[i].Out%2 + 1
			c.did = true
			break
		}
	}
	h := sim.NewPorts(in)
	c.inner.Step(h)
	copyOut(io, h, c.delta)
}

// TestBitFlipOutcomes characterises bit-flip corruption. Unlike drops,
// flips FABRICATE information, so a silently wrong map is theoretically
// possible (garbage in, garbage out — the model assumes reliable wires);
// the test records the deterministic outcome grid and asserts every run
// terminates in a classified state within budget.
func TestBitFlipOutcomes(t *testing.T) {
	g := graph.Torus(3, 4)
	dist := map[string]int{}
	for _, at := range []int{4, 6, 50, 52, 300, 304, 1000} {
		outcome := func() (o string) {
			defer func() {
				if recover() != nil {
					o = "panic"
				}
			}()
			m := mapper.New(g.Delta())
			var cw *corruptIn
			eng := sim.New(g, sim.Options{
				Root:       0,
				MaxTicks:   400_000,
				Transcript: m.Process,
			}, func(info sim.NodeInfo) sim.Automaton {
				p := gtd.New(func() *gtd.Config { c := gtd.DefaultConfig(); return &c }(), info)
				if info.Index == 5 {
					cw = &corruptIn{inner: p, delta: info.Delta, at: at}
					return cw
				}
				return p
			})
			if _, err := eng.Run(); err != nil {
				return "engine-error"
			}
			mapped, err := m.Finish()
			if err != nil {
				return "mapper-error"
			}
			if cw == nil || !cw.did {
				return "no-fault"
			}
			if g.IsomorphicFrom(0, mapped, 0) {
				return "flip-absorbed"
			}
			return "flip-wrong-map"
		}()
		dist[outcome]++
	}
	t.Logf("bit-flip outcomes: %v", dist)
	total := 0
	for _, n := range dist {
		total += n
	}
	if total != 7 {
		t.Fatalf("unclassified outcomes: %v", dist)
	}
}
