package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"topomap"
	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
)

// smallN is the node count map-small asks every generator family for.
// Kautz is the exception: Build rounds it up to 96 nodes, so map-small uses
// K(2,4) with 48.
const smallN = 40

// largeWindow is the tick budget of one map-large operation: a full map at
// ~16k nodes never finishes, so each operation runs exactly this many
// ticks and stops with sim.ErrMaxTicks.
const largeWindow = 400

// input is one cell of a map workload.
type input struct {
	name   string
	g      *graph.Graph
	expect *graph.Graph // oracle reconstruction (map-small)
	bin    []byte       // tmg1 encoding (map-large)
}

// smallNetSeed draws map-small's random networks. It is fixed, not the
// workload seed: at N=40 one draw of er or random may deliver half again
// as many messages as another, which would move best_ms between seeds by a
// few per cent with no change in the program. The workload seed draws the
// relabellings.
const smallNetSeed = 1

// smallCorpus builds map-small's inputs: every generator family at
// N≈smallN, the random ones drawn from smallNetSeed, each with its oracle
// reconstruction from root 0.
func smallCorpus() ([]input, error) {
	var in []input
	for i, f := range graph.AllFamilies() {
		g, err := graph.Build(f, smallN, subSeed(smallNetSeed, uint64(100+i)))
		if err != nil {
			return nil, err
		}
		if f == graph.FamilyKautz {
			g = graph.Kautz(2, 4)
		}
		rc, err := preorder(g, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		in = append(in, input{name: fmt.Sprintf("%s-%d", f, g.N()), g: g, expect: rc.g})
	}
	return in, nil
}

// largeCorpus builds map-large's inputs: ~16k-node networks with narrow
// frontiers (ring, chordal ring) and wide ones (torus, Kautz, de Bruijn),
// each under a seeded relabelling that keeps the root at label 0 and stored
// as tmg1 bytes. Erdős–Rényi is left out because its generator is
// quadratic (README, "Faults").
func largeCorpus(seed int64) ([]input, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	nets := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"ring-16384", func() *graph.Graph { return graph.Ring(16384) }},
		{"chordal-16384", func() *graph.Graph { return graph.ChordalRing(16384, 3) }},
		{"torus-128x128", func() *graph.Graph { return graph.Torus(128, 128) }},
		{"kautz-2-12", func() *graph.Graph { return graph.Kautz(2, 12) }},
		{"debruijn-2-14", func() *graph.Graph { return graph.DeBruijn(2, 14) }},
	}
	var in []input
	for _, n := range nets {
		g, _ := relabelled(n.build(), 0, rng, true)
		bin, err := g.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n.name, err)
		}
		in = append(in, input{name: fmt.Sprintf("%s-w%d", n.name, largeWindow), bin: bin})
		// Only the tmg1 bytes are kept: collecting each network's
		// generator garbage keeps the set-up's peak below the windows'.
		runtime.GC()
	}
	return in, nil
}

func inputNames(in []input) []string {
	names := make([]string, len(in))
	for i := range in {
		names[i] = in[i].name
	}
	return names
}

// smallRepMessages sets how often map-small repeats a cell within a round:
// a cell whose map delivers m messages is mapped max(1, round(
// smallRepMessages/m)) times back to back, so that a ring-40 map (about
// 30 ms) gets as many chances at the host's fast moments as a de Bruijn-64
// map (about 140 ms) while the hypercube (about 500 ms) still comes round
// every few seconds (README, "Noise").
const smallRepMessages = 1_000_000

// smallReps is the repetition count of a cell whose map delivered m
// messages.
func smallReps(m int64) int {
	return max(1, int(math.Round(smallRepMessages/float64(max(m, 1)))))
}

// runMapSmall maps freshly relabelled copies of every corpus graph per round
// on one reused topomap.Session with default options; the root keeps label
// 0, so every reconstruction must equal the oracle's bit for bit. The first
// round maps each cell once; its message count, which the network alone
// fixes, sets the cell's repetitions in every later round.
//
// The map workloads collect the benchmark's own garbage before every
// operation, outside the clock: each operation starts from the same heap,
// so its time and the process's peak resident set depend on what the
// operation allocates, not on where the collector's cycle happened to be.
func runMapSmall(cfg config) (*outcome, error) {
	var corpus []input
	setups, err := timeSetups(func() (err error) {
		corpus, err = smallCorpus()
		return err
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{setups: setups, cells: newCells(inputNames(corpus))}
	var chk checker
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 1)))
	sess := topomap.NewSession(topomap.Options{})
	defer sess.Close()
	reps := make([]int, len(corpus)) // 0 until the cell's first map
	err = loop(cfg.budget, func(int) error {
		for i, in := range corpus {
			for k := max(reps[i], 1); k > 0; k-- {
				h, _ := relabelled(in.g, 0, rng, true)
				runtime.GC()
				start := time.Now()
				res, err := sess.Map(h)
				d := time.Since(start)
				o.attempted++
				if err != nil {
					o.failed++
					continue
				}
				o.cells.add(i, d)
				if reps[i] == 0 {
					reps[i] = smallReps(res.Messages)
				}
				if !res.Topology.Equal(in.expect) {
					chk.failf("map-small %s: reconstruction differs from the preorder oracle", in.name)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.wrong = chk.wrong
	o.peakMiB, err = peakRSSMiB("self")
	return o, err
}

// windowOp is one map-large operation, as `topomap -in net.tmg -maxticks`
// performs it: decode the tmg1 bytes into a fresh graph, validate it, size
// a fresh engine with the gtd automaton and the transcript mapper, and run
// the tick window. It returns the engine's counters and the run's error,
// which must be sim.ErrMaxTicks.
func windowOp(bin []byte) (sim.Stats, error) {
	g, err := graph.UnmarshalBinary(bin)
	if err != nil {
		return sim.Stats{}, err
	}
	if err := g.Validate(); err != nil {
		return sim.Stats{}, err
	}
	m := mapper.New(g.Delta())
	eng := sim.New(g, sim.Options{MaxTicks: largeWindow, Transcript: m.Process}, gtd.NewFactory(gtd.DefaultConfig()))
	defer eng.Close()
	return eng.Run()
}

// freshStart collects the heap and returns the freed memory to the OS, so
// that an in-process window (the traced run's layer replay) starts the way
// a window process does: every page it touches is faulted in anew.
func freshStart() { debug.FreeOSMemory() }

// windowReport is what a window process prints: the window's time, its
// engine counters, how it ended and the process's peak resident set.
type windowReport struct {
	NS       int64     `json:"ns"`
	Stats    sim.Stats `json:"stats"`
	MaxTicks bool      `json:"max_ticks"` // ended with sim.ErrMaxTicks
	Err      string    `json:"err,omitempty"`
	PeakMiB  float64   `json:"peak_mib"`
}

// windowMain is the window process, `perfbench --window FILE`: one
// map-large operation on the tmg1 bytes in FILE, in a process of its own as
// a `topomap -in FILE -maxticks` run has, reported as one JSON line. Only
// windowOp is timed.
func windowMain(path string) int {
	bin, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	start := time.Now()
	st, err := windowOp(bin)
	rep := windowReport{NS: time.Since(start).Nanoseconds(), Stats: st, MaxTicks: errors.Is(err, sim.ErrMaxTicks)}
	if err != nil && !rep.MaxTicks {
		rep.Err = err.Error()
	}
	if rep.PeakMiB, err = peakRSSMiB("self"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(rep) // numbers, a bool and a string: cannot fail
	fmt.Println(string(line))
	return 0
}

// runWindow runs one window process on the tmg1 file at path and waits for
// it to end.
func runWindow(path string) (windowReport, error) {
	var rep windowReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command(exe, "--window", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("window process on %s: %w: %s", path, err, bytes.TrimSpace(stderr.Bytes()))
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, fmt.Errorf("window process on %s: %w", path, err)
	}
	return rep, nil
}

// windowFiles writes map-large's inputs to dir for the window processes,
// under names no other benchmark process uses, and returns their paths.
func windowFiles(dir string, corpus []input) ([]string, error) {
	paths := make([]string, len(corpus))
	for i, in := range corpus {
		paths[i] = filepath.Join(dir, fmt.Sprintf("map-large-%d-%d.tmg", os.Getpid(), i))
		if err := os.WriteFile(paths[i], in.bin, 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// removeAll removes the input files of the window processes. A file left
// behind in the build directory costs nothing, so errors are dropped.
func removeAll(paths []string) {
	for _, p := range paths {
		_ = os.Remove(p)
	}
}

// windowChecker checks map-large's stated properties: the window stops at
// exactly largeWindow ticks with sim.ErrMaxTicks, and every repetition of a
// cell reproduces the first one's protocol counters.
type windowChecker struct {
	first map[int]sim.Stats
	checker
}

func (c *windowChecker) check(cell int, name string, st sim.Stats, maxTicks bool) {
	if !maxTicks {
		c.failf("map-large %s: window did not end with sim.ErrMaxTicks", name)
		return
	}
	if st.Ticks != largeWindow {
		c.failf("map-large %s: window ran %d ticks, want %d", name, st.Ticks, largeWindow)
	}
	obs := st.Observables()
	if c.first == nil {
		c.first = map[int]sim.Stats{}
	}
	if prev, ok := c.first[cell]; !ok {
		c.first[cell] = obs
	} else if prev != obs {
		c.failf("map-large %s: counters %+v differ from the first repetition's %+v", name, obs, prev)
	}
}

// runMapLarge runs the tick window on every large network per round, each
// window in a process of its own. peak_rss_mib is the largest over cells of
// the median peak resident set of a cell's window processes: one process's
// peak moves by a few MiB with the collector's timing, and the peak of a
// process that ran every window is the highest of them all (it moved
// between 20 and 26 MiB over five runs).
func runMapLarge(cfg config) (*outcome, error) {
	var corpus []input
	var paths []string
	defer func() { removeAll(paths) }()
	setups, err := timeSetups(func() (err error) {
		if corpus, err = largeCorpus(cfg.seed); err != nil {
			return err
		}
		paths, err = windowFiles(cfg.outDir, corpus)
		return err
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{setups: setups, cells: newCells(inputNames(corpus))}
	peaks := make([][]float64, len(corpus))
	var chk windowChecker
	err = loop(cfg.budget, func(int) error {
		for i, in := range corpus {
			rep, err := runWindow(paths[i])
			o.attempted++
			if err != nil {
				return err
			}
			if rep.Err != "" {
				o.failed++
				continue
			}
			o.cells.add(i, time.Duration(rep.NS))
			peaks[i] = append(peaks[i], rep.PeakMiB)
			chk.check(i, in.name, rep.Stats, rep.MaxTicks)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.wrong = chk.wrong
	for _, p := range peaks {
		o.peakMiB = max(o.peakMiB, median(p))
	}
	return o, nil
}
