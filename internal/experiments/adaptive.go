package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"

	"topomap/internal/graph"
	"topomap/internal/sim"
)

// e15Thresholds are the fan-out thresholds E15 sweeps; the engine's default
// (sim's parallelCrossover) is chosen from this table.
var e15Thresholds = []int{16, 1024, 4096, 16384, 16385, 32768}

// E15DispatchCrossover measures where the parallel tick starts paying. Each
// window runs with Workers: 1 and with a pool of GOMAXPROCS workers at
// every threshold of e15Thresholds, a tick fanning out when its frontier
// reaches the threshold. Rounds alternate the run order, and every run's
// fingerprint must match the first, so the columns chart wall-clock alone.
func E15DispatchCrossover(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Dispatch crossover: sequential burst vs worker fan-out by frontier threshold (engineering)",
		Claim:   "substrate: the pool's per-tick dispatch costs more than it saves on narrow frontiers and pays on wide ones; the fan-out threshold sits where it stops losing, without changing a single observable bit",
		Columns: []string{"window", "N", "ticks", "steps/tick", "rounds", "w1 ms", "w1 spread%"},
	}
	for _, th := range e15Thresholds {
		t.Columns = append(t.Columns, fmt.Sprintf("T%d ×", th), fmt.Sprintf("T%d par%%", th))
	}
	t.Columns = append(t.Columns, "identical")

	type window struct {
		name   string
		build  func() (*graph.Graph, error)
		ticks  int
		rounds int
	}
	// perfbench's map-large windows: ~16k-node networks under a seeded
	// relabelling that keeps the root at 0.
	relabelled := func(g *graph.Graph) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			perm := graph.RandomPermutation(g.N(), 2)
			i := slices.Index(perm, 0)
			perm[0], perm[i] = 0, perm[0]
			return g.Relabel(perm), nil
		}
	}
	// Quick runs two rounds; the full table runs eleven, except five on
	// the Erdős–Rényi window, whose runs take most of a minute each.
	rounds := 2
	if s == Full {
		rounds = 11
	}
	windows := []window{
		{"ring-16384", relabelled(graph.Ring(16384)), 400, rounds},
		{"chordal-16384", relabelled(graph.ChordalRing(16384, 3)), 400, rounds},
		{"torus-128x128", relabelled(graph.Torus(128, 128)), 400, rounds},
		{"kautz-2-12", relabelled(graph.Kautz(2, 12)), 400, rounds},
		{"debruijn-2-14", relabelled(graph.DeBruijn(2, 14)), 400, rounds},
	}
	if s == Full {
		// E18's two 10^5 anchor windows.
		windows = append(windows,
			window{"ring-100000", func() (*graph.Graph, error) { return buildGraph(graph.FamilyRing, 100_000, e18Seed) }, e18Window, rounds},
			window{"er-100000", func() (*graph.Graph, error) { return buildGraph(graph.FamilyErdosRenyi, 100_000, e18Seed) }, e18Window, 5})
	}
	pool := max(maxWorkers(), 2)

	for _, w := range windows {
		g, err := w.build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		// Config 0 is Workers: 1; config i > 0 is the pool at
		// e15Thresholds[i-1]. Odd rounds run the configs in reverse.
		n := len(e15Thresholds) + 1
		walls := make([][]float64, n)
		runs := make([]*fingerprintRun, n)
		identical := "yes"
		for r := 0; r < w.rounds; r++ {
			for k := 0; k < n; k++ {
				c := k
				if r%2 == 1 {
					c = n - 1 - k
				}
				opts := sim.Options{Workers: 1}
				if c > 0 {
					opts = sim.Options{Workers: pool, ParallelThreshold: e15Thresholds[c-1]}
				}
				run, err := runFingerprinted(g, opts, w.ticks, true, (*sim.Engine).Run)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.name, err)
				}
				if runs[0] != nil && run.fingerprint != runs[0].fingerprint {
					identical = "NO"
				}
				runs[c] = run
				walls[c] = append(walls[c], run.wall.Seconds()*1000)
			}
		}
		q1, seq, q3 := quartiles(walls[0])
		st := runs[0].stats
		row := []string{w.name, fmtI(g.N()), fmtI(st.Ticks),
			fmtF(float64(st.StepCalls) / float64(st.Ticks)), fmtI(w.rounds),
			fmtF(seq), fmtF(100 * (q3 - q1) / seq)}
		for c := 1; c < n; c++ {
			_, med, _ := quartiles(walls[c])
			ps := runs[c].stats
			row = append(row, fmtF(med/seq), fmtF(100*float64(ps.ParTicks)/float64(ps.Ticks)))
		}
		t.Rows = append(t.Rows, append(row, identical))
	}
	t.Notes = append(t.Notes,
		"the run order is reversed on odd rounds; w1 ms is the median Workers: 1 window, w1 spread% the distance between its quartiles over that median",
		fmt.Sprintf("T<n> × is the median window of a %d-worker pool that fans out ticks with at least n frontier nodes, over w1 ms (above 1 = slower than Workers: 1); T<n> par%% is the share of its ticks fanned out", pool),
		"identical compares an FNV-1a fingerprint of the root transcript plus ticks, messages, steps, peak-active, and the failure outcome across every run of the window",
		"the 16k-node windows are perfbench's map-large networks under a seeded relabelling (root kept at 0); at full scale E18's ring and Erdős–Rényi 10^5 windows follow",
		hostNote())
	return t, nil
}

// quartiles returns the lower quartile, median, and upper quartile of xs
// (nearest-rank; the upper middle for even counts).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/4], s[len(s)/2], s[3*len(s)/4]
}

// hostNote names the machine and build a measurement ran on: CPU count,
// GOMAXPROCS, Go version, and the VCS revision stamped into the binary.
func hostNote() string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var modified bool
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value[:min(len(kv.Value), 7)]
			case "vcs.modified":
				modified = kv.Value == "true"
			}
		}
		if modified {
			rev += "+modified"
		}
	}
	return fmt.Sprintf("host: NumCPU %d, GOMAXPROCS %d, %s, commit %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}
