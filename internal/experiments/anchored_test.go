package experiments

import (
	"fmt"
	"sync"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/sim"
)

// The test binary builds each network of 10^5 nodes or more once: E18's
// quick grid, TestLargeNSmoke and the anchors window the same ring and
// Erdős–Rényi 10^5 graphs, and the Erdős–Rényi pair sweep (10^10 draws)
// takes about a minute per build. Engines only read their graph, so the
// runs can share it.
func init() {
	type key struct {
		f    graph.Family
		n    int
		seed int64
	}
	var mu sync.Mutex
	memo := map[key]*graph.Graph{}
	build := buildGraph
	buildGraph = func(f graph.Family, n int, seed int64) (*graph.Graph, error) {
		if n < 100_000 {
			return build(f, n, seed)
		}
		mu.Lock()
		defer mu.Unlock()
		k := key{f, n, seed}
		if g, ok := memo[k]; ok {
			return g, nil
		}
		g, err := build(f, n, seed)
		if err == nil {
			memo[k] = g
		}
		return g, err
	}
}

// Anchored transcript fingerprints, recorded on the engine BEFORE the
// packed-plane/arena memory refactor and re-verified bit-identical after
// it. Each is the FNV-1a hash of the root's full transcript stream plus
// the scheduler-invariant observables and the error outcome (the
// runFingerprinted format). They pin the refactor's equivalence claim:
// any engine change that alters one of these strings changed observable
// protocol behaviour, not just memory layout.
//
// All graphs are graph.Build(family, n, 9). Windowed anchors (w > 0) end
// in ErrMaxTicks by design. The two N=100000 anchors are also the rows
// the E18 table and the CI large-N smoke assert on.
const (
	anchorRing64   = "5a2467ba8ca3ac8|t=133065|m=835114|s=-|a=17|err=<nil>"
	anchorTorus100 = "dd42f9947f1811f|t=99017|m=2457600|s=-|a=69|err=<nil>"
	anchorER128    = "3328ff0864e2dd93|t=79218|m=4369707|s=-|a=126|err=<nil>"
	anchorBA128    = "ca2c2886e30c2119|t=178013|m=9494830|s=-|a=125|err=<nil>"
	// Deterministic fault injection (Seed 7, DropRate 0.002) in a
	// 2000-tick window.
	anchorRing1024Faulted = "7bfcd4795ead8fdc|t=2000|m=109208|s=-|a=93|err=sim: maximum tick count exceeded before termination (tick 2000)"
	anchorRing100k        = "7bfcd4795ead8fdc|t=4000|m=668334|s=-|a=334|err=sim: maximum tick count exceeded before termination (tick 4000)"
	anchorER100k          = "90f1e462d1742815|t=4000|m=171979739|s=-|a=99436|err=sim: maximum tick count exceeded before termination (tick 4000)"
)

// anchorCase binds one recorded fingerprint to its run configuration.
type anchorCase struct {
	name   string
	fam    graph.Family
	n      int
	window int
	faults *sim.FaultPlan
	want   string
}

func anchorCases() []anchorCase {
	return []anchorCase{
		{"ring64", graph.FamilyRing, 64, 0, nil, anchorRing64},
		{"torus100", graph.FamilyTorus, 100, 0, nil, anchorTorus100},
		{"er128", graph.FamilyErdosRenyi, 128, 0, nil, anchorER128},
		{"ba128", graph.FamilyBarabasiAlbert, 128, 0, nil, anchorBA128},
		{"ring1024-faulted", graph.FamilyRing, 1024, 2000,
			&sim.FaultPlan{Seed: 7, DropRate: 0.002}, anchorRing1024Faulted},
		{"ring100k", graph.FamilyRing, 100_000, 4000, nil, anchorRing100k},
		{"er100k", graph.FamilyErdosRenyi, 100_000, 4000, nil, anchorER100k},
	}
}

// runOneLoop drives an engine tick by tick through RunOne: per-tick
// dispatch with no sequential burst.
func runOneLoop(e *sim.Engine) (sim.Stats, error) {
	for {
		more, err := e.RunOne()
		if err != nil || !more {
			return e.Stats(), err
		}
	}
}

func (c anchorCase) run(t *testing.T, opts sim.Options, drive func(*sim.Engine) (sim.Stats, error)) string {
	t.Helper()
	g, err := buildGraph(c.fam, c.n, e18Seed)
	if err != nil {
		t.Fatal(err)
	}
	if c.faults != nil {
		opts.Faults = c.faults
	}
	r, err := runFingerprinted(g, opts, c.window, false, drive)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return r.fingerprint
}

// TestAnchoredFingerprints replays every anchor under default engine
// options: the refactor-equivalence gate for the whole grid, including
// both large windowed maps.
func TestAnchoredFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("anchored fingerprint suite skipped in -short mode")
	}
	for _, c := range anchorCases() {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t, sim.Options{}, (*sim.Engine).Run); got != c.want {
				t.Errorf("fingerprint diverged from pre-refactor anchor\n got  %s\n want %s", got, c.want)
			}
		})
	}
}

// TestLargeNSmoke is the CI gate for the memory refactor at scale, cheap
// enough to run on every push: one windowed ring map at N=100000 must
// reproduce the pre-refactor transcript anchor AND fit the engine's
// accounting inside the 4×-reduction budget. (The Erdős–Rényi twin of
// this row costs over a minute and lives in the E18 invariant check and
// TestAnchoredFingerprints instead.)
func TestLargeNSmoke(t *testing.T) {
	g, err := graph.Build(graph.FamilyRing, 100_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	row, err := e18Run(graph.FamilyRing, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if row.fp != anchorRing100k {
		t.Errorf("ring N=1e5 fingerprint diverged from the pre-refactor anchor\n got  %s\n want %s",
			row.fp, anchorRing100k)
	}
	budget := e18OldBytesPerNode[graph.FamilyRing] / 4
	if row.acctBPN <= 0 || row.acctBPN > budget {
		t.Errorf("ring N=1e5 engine+arena %.1f bytes/node over the 4x budget %.1f", row.acctBPN, budget)
	}
	if row.n != g.N() {
		t.Errorf("row measured %d nodes, graph has %d", row.n, g.N())
	}
}

// TestAnchoredSchedulerMatrix replays a subset of anchors across the
// dispatch surface — dense vs sparse substrate × worker counts 1/2/4/8 ×
// the default threshold ("auto") vs ParallelThreshold 1, every non-empty
// tick fanned out ("parallel") — plus per-tick RunOne dispatch
// ("sequential"), and demands the recorded fingerprint from every
// combination. The expensive cells (full dense sweeps of the
// 100000-node graph) keep the matrix honest without keeping CI hostage:
// dense large-N runs once, at the highest worker count.
func TestAnchoredSchedulerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("anchored scheduler matrix skipped in -short mode")
	}
	type cfg struct {
		dense   bool
		mode    string // auto, parallel, or sequential
		workers int
	}
	grid := func(substrates ...bool) []cfg {
		var cs []cfg
		for _, dense := range substrates {
			for _, w := range []int{1, 2, 4, 8} {
				cs = append(cs, cfg{dense, "auto", w}, cfg{dense, "parallel", w})
			}
		}
		return cs
	}
	matrix := map[string][]cfg{
		"ring1024-faulted": append(grid(false, true),
			cfg{false, "sequential", 1}, cfg{false, "sequential", 8}),
		"ring64": append(grid(false, true), cfg{false, "sequential", 1}),
		"ring100k": append(grid(false),
			cfg{true, "auto", 8}, cfg{false, "sequential", 1}),
	}
	cases := map[string]anchorCase{}
	for _, c := range anchorCases() {
		cases[c.name] = c
	}
	for cname, cfgs := range matrix {
		c, ok := cases[cname]
		if !ok {
			t.Fatalf("matrix references unknown anchor %s", cname)
		}
		for _, cf := range cfgs {
			sub := "sparse"
			if cf.dense {
				sub = "dense"
			}
			name := fmt.Sprintf("%s-%s-w%d", sub, cf.mode, cf.workers)
			t.Run(c.name+"/"+name, func(t *testing.T) {
				t.Parallel()
				opts := sim.Options{Naive: cf.dense, Workers: cf.workers}
				drive := (*sim.Engine).Run
				switch cf.mode {
				case "parallel":
					opts.ParallelThreshold = 1
				case "sequential":
					drive = runOneLoop
				}
				if got := c.run(t, opts, drive); got != c.want {
					t.Errorf("fingerprint diverged under %s\n got  %s\n want %s", name, got, c.want)
				}
			})
		}
	}
}
