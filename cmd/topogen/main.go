// Command topogen generates network topologies in the repository's graph
// formats (readable by topomap -in), validates them, and reports their
// parameters.
//
// Usage:
//
//	topogen -family random -n 40 -delta 3 -m 90 -seed 11 -out g.txt
//	topogen -family treeloop -n 31 -seed 2           # Lemma 5.1 instance
//	topogen -family kautz -n 96 -format binary -out g.tmg
//	topogen -family torus -n 64 -mutate 50 -out g.txt # + g.txt.deltas stream
//	topogen -check -in g.txt                          # validate a file
//
// -format selects the output codec: text (the plain-text topomap-graph v1
// format, default) or binary (the tmg1 frame, DESIGN.md §2.8). -check
// accepts either — the codec is sniffed from the file's first bytes.
//
// -mutate k additionally emits a deterministic-per-seed stream of k
// model-preserving deltas to <out>.deltas (DESIGN.md §2.9): one "patch"
// line per delta in text mode, back-to-back tmd1 frames in binary mode.
// The deltas are written in reconstruction space, the ids PATCH /map reads:
// delta i names nodes by their preorder labels (DFS from root 0, ascending
// out-ports) in the graph produced by deltas 0..i-1. POSTing the graph and
// PATCHing each delta in turn therefore replays the workload against
// topomapd exactly.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"topomap/internal/graph"
	"topomap/internal/remap"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command; it returns the process exit
// code (0 success, 1 failure, 2 flag errors).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family = fs.String("family", "random", "graph family (ring|biring|line|torus|kautz|debruijn|hypercube|random|treeloop|er|ba|astier|chordal)")
		n      = fs.Int("n", 20, "approximate node count")
		delta  = fs.Int("delta", 3, "degree bound (random family)")
		m      = fs.Int("m", 0, "edge target (random family; 0 = 2n)")
		seed   = fs.Int64("seed", 1, "random seed")
		out    = fs.String("out", "", "output file (default stdout)")
		format = fs.String("format", "text", "output codec: text or binary")
		in     = fs.String("in", "", "with -check: file to validate")
		check  = fs.Bool("check", false, "validate a graph file and print its parameters")
		mutate = fs.Int("mutate", 0, "emit k deterministic deltas alongside the graph (requires -out; written to <out>.deltas)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fatal := func(err error) int {
		fmt.Fprintf(stderr, "topogen: %v\n", err)
		return 1
	}
	if *format != "text" && *format != "binary" {
		fmt.Fprintf(stderr, "topogen: -format %q: want text or binary\n", *format)
		return 2
	}

	if *check {
		f, err := os.Open(*in)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		g, err := readGraph(f)
		if err != nil {
			return fatal(err)
		}
		if err := g.Validate(); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "valid: N=%d δ=%d edges=%d diameter=%d\n", g.N(), g.Delta(), g.NumEdges(), g.Diameter())
		return 0
	}

	var g *graph.Graph
	var err error
	if graph.Family(*family) == graph.FamilyRandom {
		edgeTarget := *m
		if edgeTarget == 0 {
			edgeTarget = 2 * *n
		}
		g = graph.Random(*n, *delta, edgeTarget, *seed)
	} else {
		g, err = graph.Build(graph.Family(*family), *n, *seed)
		if err != nil {
			return fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		return fatal(fmt.Errorf("generated graph invalid: %w", err))
	}
	if *mutate < 0 {
		fmt.Fprintf(stderr, "topogen: -mutate %d: want a non-negative count\n", *mutate)
		return 2
	}
	if *mutate > 0 && *out == "" {
		fmt.Fprintf(stderr, "topogen: -mutate requires -out (deltas go to <out>.deltas)\n")
		return 2
	}
	if *mutate > 0 {
		if err := writeDeltas(g, *mutate, *seed, *out+".deltas", *format, stderr); err != nil {
			return fatal(err)
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		w = f
	}
	if *format == "binary" {
		// The binary frame has no comment syntax; the parameters go to
		// stderr so piping stays clean.
		fmt.Fprintf(stderr, "topogen: %s n=%d seed=%d: N=%d delta=%d edges=%d diameter=%d\n",
			*family, *n, *seed, g.N(), g.Delta(), g.NumEdges(), g.Diameter())
		data, err := g.MarshalBinary()
		if err != nil {
			return fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			return fatal(err)
		}
		return 0
	}
	fmt.Fprintf(w, "# %s n=%d seed=%d: N=%d delta=%d edges=%d diameter=%d\n",
		*family, *n, *seed, g.N(), g.Delta(), g.NumEdges(), g.Diameter())
	if err := g.Marshal(w); err != nil {
		return fatal(err)
	}
	return 0
}

// writeDeltas generates the deterministic delta stream for g and writes it
// next to the graph file: one "patch" line per delta in text mode (each
// preceded by a comment naming the pre-delta canonical digest), back-to-back
// tmd1 frames in binary mode (each frame carries its own base digest). Each
// delta is drawn on the reconstruction of the graph so far — its preorder
// relabel from root 0, remap.Rebuild — so its node ids are the labels a
// topomapd PATCH resolves against the cached base.
func writeDeltas(g *graph.Graph, k int, seed int64, path, format string, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	rng := rand.New(rand.NewSource(seed))
	cur := g.Clone() // Rebuild hands back cur itself when it is already in preorder
	for i := 0; i < k; i++ {
		rc, _, err := remap.Rebuild(cur, 0)
		if err != nil {
			return err
		}
		ds, err := graph.RandomDeltas(rc, 1, rng.Int63())
		if err != nil {
			return err
		}
		d := ds[0]
		digest := rc.CanonicalDigest(0)
		if format == "binary" {
			frame, err := graph.MarshalDeltaBinary(digest, d)
			if err != nil {
				return err
			}
			if _, err := w.Write(frame); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(w, "# delta %d base=%x\n%s\n", i, digest, d.MarshalText())
		}
		if cur, err = d.Apply(rc); err != nil {
			return fmt.Errorf("delta stream %d failed to apply: %v", i, err)
		}
	}
	fmt.Fprintf(stderr, "topogen: wrote %d deltas to %s (final N=%d edges=%d)\n",
		k, path, cur.N(), cur.NumEdges())
	return w.Flush()
}

// readGraph decodes a graph in either codec, sniffing the binary magic from
// the first bytes.
func readGraph(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	peek, _ := br.Peek(4)
	if graph.IsBinaryGraph(peek) {
		return graph.UnmarshalBinaryFrom(br, 0)
	}
	return graph.Unmarshal(br)
}
