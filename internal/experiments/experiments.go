// Package experiments regenerates every quantitative claim of the paper as
// a table or data series (the paper itself is theoretical and publishes no
// measured tables; DESIGN.md §4 maps each lemma/theorem to an experiment).
// cmd/topobench renders these tables; bench_test.go wraps them as Go
// benchmarks; EXPERIMENTS.md records representative output.
package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"topomap/internal/core"
	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
)

// Sessions caps the session-pool sweep of the E13 batch experiment; 0 (the
// default) sweeps {1, 2, 4, 8}. cmd/topobench -sessions sets it. Results
// are identical at any pool size — only throughput varies.
var Sessions int

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

// Table is one experiment's result, renderable as text.
type Table struct {
	ID      string
	Title   string
	Claim   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table for a terminal.
func (t *Table) Render(b *strings.Builder) {
	fmt.Fprintf(b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(b, "note: %s\n", n)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Scale selects experiment sizes.
type Scale int

// Scales: Quick for CI and unit tests, Full for the published tables.
const (
	Quick Scale = iota
	Full
)

// Runner is an experiment entry point.
type Runner func(Scale) (*Table, error)

// registry of experiments in order.
var registry = []struct {
	ID  string
	Run Runner
}{
	{"e1", E1Correctness},
	{"e2", E2GTDScaling},
	{"e3", E3RCACost},
	{"e4", E4BCACost},
	{"e5", E5LowerBound},
	{"e6", E6Undisturbed},
	{"e7", E7CleanupSlack},
	{"e8", E8Baseline},
	{"e9", E9Throughput},
	{"e10", E10SpeedAblation},
	{"e11", E11DiameterFamilies},
	{"e12", E12Pigeonhole},
	{"e13", E13BatchThroughput},
	{"e14", E14FrontierScheduler},
	{"e16", E16ServedThroughput},
	{"e17", E17Hostile},
	{"e18", E18Scale},
	{"e19", E19CachedServing},
	{"e20", E20WireCodec},
	{"e21", E21IncrementalRemap},
}

// IDs lists experiment identifiers in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.ID
	}
	return out
}

// Get returns the runner for an experiment id.
func Get(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r.Run, true
		}
	}
	return nil, false
}

// runResult carries the measurements of one full GTD run.
type runResult struct {
	graph    *graph.Graph
	root     int
	mapped   *graph.Graph
	exact    bool
	ticks    int
	messages int64
	trans    int
}

// runGTD executes the protocol with the mapper attached.
func runGTD(g *graph.Graph, root int, cfg gtd.Config, hooks gtd.Hooks, obs []sim.Observer) (*runResult, error) {
	return runGTDBudget(g, root, cfg, hooks, obs, 64_000_000)
}

// newSweepSession returns a reusable protocol session for the hook-free
// family sweeps (E1/E2/E11): one engine, automata
// set, and mapper recycled across the whole sweep instead of reallocated
// per run. Results are identical to per-run engines (the session
// equivalence tests assert it); the sweep just allocates and starts up
// far less.
func newSweepSession(cfg gtd.Config) *core.Session {
	return core.NewSession(core.Options{MaxTicks: 64_000_000, Config: &cfg})
}

// runSessionGTD executes one run of a sweep on a reusable session.
func runSessionGTD(s *core.Session, g *graph.Graph, root int) (*runResult, error) {
	res, err := s.RunRooted(g, root)
	if err != nil {
		return nil, err
	}
	return &runResult{
		graph:    g,
		root:     root,
		mapped:   res.Topology,
		exact:    g.IsomorphicFrom(root, res.Topology, 0),
		ticks:    res.Stats.Ticks,
		messages: res.Stats.NonBlankMessages,
		trans:    res.Transactions,
	}, nil
}

// runGTDBudget is runGTD with an explicit tick budget (the speed ablation
// runs deliberately broken configurations that may never terminate).
func runGTDBudget(g *graph.Graph, root int, cfg gtd.Config, hooks gtd.Hooks, obs []sim.Observer, budget int) (*runResult, error) {
	m := mapper.New(g.Delta())
	if hooks != nil {
		prev := cfg.Hooks
		cfg.Hooks = func(node int, kind gtd.EventKind, payload int) {
			if prev != nil {
				prev(node, kind, payload)
			}
			hooks(node, kind, payload)
		}
	}
	eng := sim.New(g, sim.Options{
		Root:       root,
		MaxTicks:   budget,
		Transcript: m.Process,
		Observers:  obs,
	}, gtd.NewFactory(cfg))
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}
	mapped, err := m.Finish()
	if err != nil {
		return nil, err
	}
	return &runResult{
		graph:    g,
		root:     root,
		mapped:   mapped,
		exact:    g.IsomorphicFrom(root, mapped, 0),
		ticks:    stats.Ticks,
		messages: stats.NonBlankMessages,
		trans:    m.Transactions,
	}, nil
}

// fmtF renders a float compactly.
func fmtF(x float64) string { return fmt.Sprintf("%.2f", x) }

// fmtI renders an int.
func fmtI(x int) string { return fmt.Sprintf("%d", x) }

// fmtI64 renders an int64.
func fmtI64(x int64) string { return fmt.Sprintf("%d", x) }

// sortedKeys returns sorted map keys (for deterministic tables).
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
