// Command perfbench is topomap's benchmark: it drives the program's layers
// (graph, sim with the gtd automaton, mapper, core, remap, cache, service,
// and the cmd/topomapd daemon) through their public functions on four
// workloads, checks every output against its own preorder oracle, and
// prints the end-to-end metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload map-small --seed 1 --seconds 12 --trace 0 \
//	          --daemon .bench_build/topomapd --outdir .bench_build
//
// run.sh builds both binaries from the checkout and passes --daemon and
// --outdir. With --trace 1 the run instead traces all four workloads and
// prints the per-layer metrics; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is what every workload receives from the command line.
type config struct {
	seed   int64
	budget time.Duration // measured-loop length
	daemon string        // topomapd binary, for the serve workloads
	outDir string        // where traces are written
}

// outcome is an untraced workload run: what the end-to-end metrics are
// computed from.
type outcome struct {
	setups    []time.Duration // one per set-up repetition
	cells     *cells
	peakMiB   float64
	attempted int64
	failed    int64
	wrong     []string // correctness violations, empty when every output checked out
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"map-small":   runMapSmall,
	"map-large":   runMapLarge,
	"serve-read":  runServeRead,
	"serve-write": runServeWrite,
}

// setupReps is how many times each workload builds its inputs (and, for the
// serve workloads, starts and seeds a daemon); setup_s is the median.
// Set-ups shorter than setupFloor/setupReps are repeated until setupFloor.
const (
	setupReps  = 3
	setupFloor = 250 * time.Millisecond
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "map-small, map-large, serve-read or serve-write")
		seed    = flag.Int64("seed", 1, "workload seed: every input is derived from it")
		seconds = flag.Float64("seconds", 12, "length of the measured loop")
		trace   = flag.Int("trace", 0, "1 = traced run of all four workloads, reporting per-layer metrics")
		daemon  = flag.String("daemon", "", "path of the topomapd binary (serve workloads)")
		outDir  = flag.String("outdir", ".", "directory for the span dump of a traced run")
		commit  = flag.String("commit", "unknown", "commit the binaries were built from, recorded in the output")
		window  = flag.String("window", "", "run one map-large window on this tmg1 file in this process and print its report (map-large starts these processes)")
	)
	flag.Parse()
	if *window != "" {
		return windowMain(*window)
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		daemon: *daemon,
		outDir: *outDir,
	}
	env, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"go": runtime.Version(), "commit": *commit,
	})
	fmt.Printf("env %s\n", env)

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = traceAll(cfg)
	} else {
		var o *outcome
		if o, err = workloads[*name](cfg); err == nil {
			rep = o.report()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// report turns an untraced outcome into the end-to-end metrics, after
// printing the per-cell figures behind them.
func (o *outcome) report() *report {
	o.cells.print()
	for _, w := range o.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %s\n", w)
	}
	setup := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setup[i] = d.Seconds()
	}
	return &report{
		Correct:   len(o.wrong) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics: map[string]metric{
			"setup_s":      {median(setup), "s"},
			"best_ms":      {o.cells.geoBest(), "ms"},
			"peak_rss_mib": {o.peakMiB, "MiB"},
		},
	}
}

// checker collects correctness violations, keeping the first few.
type checker struct{ wrong []string }

func (c *checker) failf(format string, args ...any) {
	if len(c.wrong) < 8 {
		c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
	}
}

// errWrong marks an output that failed its check during set-up, where there
// is no measured loop to carry on with.
var errWrong = errors.New("wrong output")
