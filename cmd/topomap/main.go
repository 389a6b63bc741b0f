// Command topomap runs the Global Topology Determination protocol on a
// network and prints the topology reconstructed by the root's master
// computer, with verification against the ground truth.
//
// Usage:
//
//	topomap -family kautz -n 24 [-root 3] [-seed 7] [-dot out.dot] [-trace] [-stats]
//	topomap -in graph.txt [-root 0] ...
//	topomap -in g.tmg -out mapped.tmg -format binary   # binary in and out
//	topomap -family ba -n 48 -droprate 0.01 -crash 5@200 -stats   # fault injection
//
// The input graph comes either from a built-in family (-family/-n/-seed) or
// from a file emitted by topogen (-in) — plain text or the tmg1 binary
// frame, sniffed automatically. -out writes the reconstructed topology to a
// file in the codec picked by -format (text or binary). The fault flags
// (-droprate, -faultseed, -crash) inject deterministic message loss and
// fail-stop crashes; a faulted run typically ends in a deadlock or
// tick-budget error, which the command reports as a failure.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"topomap"
	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
	"topomap/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command; it returns the process exit
// code (0 success, 1 failure/mismatch, 2 flag errors).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topomap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family  = fs.String("family", "torus", "graph family (ring|biring|line|torus|kautz|debruijn|hypercube|random|treeloop|er|ba|astier|chordal)")
		n       = fs.Int("n", 20, "approximate node count for the family")
		seed    = fs.Int64("seed", 1, "seed for random families")
		in      = fs.String("in", "", "read the graph from this file instead of generating one (text or binary, sniffed)")
		root    = fs.Int("root", 0, "root processor index")
		outPath = fs.String("out", "", "write the reconstructed topology to this file")
		format  = fs.String("format", "text", "codec for -out: text or binary")
		dot     = fs.String("dot", "", "write the mapped topology as Graphviz dot to this file")
		showTr  = fs.Bool("trace", false, "print the protocol event timeline")
		stats   = fs.Bool("stats", false, "print run statistics")
		edges   = fs.Bool("edges", false, "print the mapped edge list")
		maxTick = fs.Int("maxticks", 0, "tick budget (0 = automatic)")
		dropRt  = fs.Float64("droprate", 0, "fault injection: probability each emitted symbol is lost in flight (deterministic per -faultseed)")
		faultSd = fs.Int64("faultseed", 1, "fault injection: seed of the message-loss hash")
		crash   = fs.String("crash", "", "fault injection: fail-stop crash as node@tick (e.g. 5@200); repeatable with commas")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fatal := func(err error) int {
		fmt.Fprintf(stderr, "topomap: %v\n", err)
		return 1
	}

	if *format != "text" && *format != "binary" {
		fmt.Fprintf(stderr, "topomap: -format %q: want text or binary\n", *format)
		return 2
	}

	faults, err := parseFaults(*dropRt, *faultSd, *crash)
	if err != nil {
		fmt.Fprintf(stderr, "topomap: %v\n", err)
		return 2
	}

	g, err := loadGraph(*in, *family, *n, *seed)
	if err != nil {
		return fatal(err)
	}
	if err := g.Validate(); err != nil {
		return fatal(err)
	}

	// Run with the mapper attached; optionally trace events.
	m := mapper.New(g.Delta())
	cfg := gtd.DefaultConfig()
	var tr *trace.Tracer
	var eng *sim.Engine
	if *showTr {
		tr = trace.New(func() int { return eng.Tick() }, 0)
		cfg.Hooks = tr.Hook
	}
	eng = sim.New(g, sim.Options{
		Root:       *root,
		MaxTicks:   *maxTick,
		Faults:     faults,
		Transcript: m.Process,
	}, gtd.NewFactory(cfg))
	st, err := eng.Run()
	if err != nil {
		return fatal(fmt.Errorf("protocol run failed: %w", err))
	}
	mapped, err := m.Finish()
	if err != nil {
		return fatal(fmt.Errorf("transcript decoding failed: %w", err))
	}

	exact := topomap.Verify(g, *root, mapped)
	fmt.Fprintf(stdout, "network: N=%d δ=%d edges=%d diameter=%d root=%d\n",
		g.N(), g.Delta(), g.NumEdges(), g.Diameter(), *root)
	fmt.Fprintf(stdout, "mapped:  N=%d edges=%d in %d ticks, %d messages, %d transactions\n",
		mapped.N(), mapped.NumEdges(), st.Ticks, st.NonBlankMessages, m.Transactions)
	if exact {
		fmt.Fprintln(stdout, "verify:  EXACT — the reconstruction is port-preserving isomorphic to the truth")
	} else {
		fmt.Fprintln(stdout, "verify:  MISMATCH")
	}

	if *stats {
		nd := g.N() * g.Diameter()
		fmt.Fprintf(stdout, "stats:   ticks/(N·D)=%.2f  steps=%d  steps/tick=%.2f  peak-active=%d\n",
			float64(st.Ticks)/float64(nd), st.StepCalls,
			float64(st.StepCalls)/float64(st.Ticks), st.MaxActive)
		if faults != nil {
			fmt.Fprintf(stdout, "faults:  droprate=%g dropped=%d crashes=%d\n",
				faults.DropRate, st.Dropped, len(faults.Crashes))
		}
	}
	if *edges {
		for _, e := range mapped.Edges() {
			fmt.Fprintf(stdout, "edge %d:%d -> %d:%d\n", e.From, e.OutPort, e.To, e.InPort)
		}
	}
	if *showTr {
		if err := tr.Dump(stdout); err != nil {
			return fatal(err)
		}
	}
	if *outPath != "" {
		if err := writeGraph(*outPath, *format, mapped); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s (%s)\n", *outPath, *format)
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return fatal(err)
		}
		if _, err := f.WriteString(mapped.DOT("mapped", 0)); err != nil {
			return fatal(err)
		}
		if err := f.Close(); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dot)
	}
	if !exact {
		return 1
	}
	return 0
}

// parseFaults assembles the engine fault plan from the CLI flags; a nil plan
// means no fault injection. The crash spec is a comma-separated list of
// node@tick pairs.
func parseFaults(dropRate float64, seed int64, crashSpec string) (*sim.FaultPlan, error) {
	if dropRate < 0 || dropRate > 1 {
		return nil, fmt.Errorf("-droprate %g outside [0,1]", dropRate)
	}
	var crashes []sim.Crash
	if crashSpec != "" {
		for _, part := range strings.Split(crashSpec, ",") {
			var c sim.Crash
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d@%d", &c.Node, &c.Tick); err != nil {
				return nil, fmt.Errorf("-crash %q: want node@tick", part)
			}
			crashes = append(crashes, c)
		}
	}
	if dropRate == 0 && len(crashes) == 0 {
		return nil, nil
	}
	return &sim.FaultPlan{Seed: seed, DropRate: dropRate, Crashes: crashes}, nil
}

func loadGraph(path, family string, n int, seed int64) (*graph.Graph, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		br := bufio.NewReader(f)
		peek, _ := br.Peek(4)
		if graph.IsBinaryGraph(peek) {
			return graph.UnmarshalBinaryFrom(br, 0)
		}
		return graph.Unmarshal(br)
	}
	return graph.Build(graph.Family(family), n, seed)
}

// writeGraph stores the reconstructed topology in the requested codec.
func writeGraph(path, format string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if format == "binary" {
		data, err := g.MarshalBinary()
		if err != nil {
			f.Close()
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
	} else if err := g.Marshal(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
