// Command topobench regenerates the repository's experiment tables: every
// quantitative claim of Goldstein's "Determination of the Topology of a
// Directed Network" as a measurable table or series (see DESIGN.md §4 for
// the claim → experiment mapping and EXPERIMENTS.md for recorded output).
//
// Usage:
//
//	topobench [-full] [-sessions n] [-json]
//	          [-cpuprofile f] [-memprofile f] [experiment ids...]
//	topobench -list
//
// With no ids, every experiment runs in order. -sessions caps the
// session-pool sweep of the E13 batch-throughput experiment (0 sweeps pool
// sizes 1/2/4/8); results are identical at any pool size, only throughput
// varies. -json additionally writes each experiment's table to
// BENCH_<ID>.json in the working directory, so the performance trajectory
// can be tracked machine-readably across commits. -cpuprofile and
// -memprofile write pprof profiles on clean exit, for digging into exactly
// where a slow experiment spends its time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"topomap/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: parse flags, execute the
// selected experiments, render tables (and JSON files with -json), and
// return the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "run the full-size experiment sweeps (slower)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	sessions := fs.Int("sessions", 0, "session-pool cap for the E13 batch sweep (0 = sweep 1/2/4/8)")
	jsonOut := fs.Bool("json", false, "also write each experiment's table to BENCH_<ID>.json")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file on clean exit")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on clean exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: topobench [-full] [-sessions n] [-json] [-cpuprofile f] [-memprofile f] [experiment ids...]\n")
		fmt.Fprintf(stderr, "experiments: %s\n", strings.Join(experiments.IDs(), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	experiments.Sessions = *sessions
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "topobench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "topobench: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "topobench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "topobench: -memprofile: %v\n", err)
			}
		}()
	}

	failed := false
	for _, id := range ids {
		id = strings.ToLower(id)
		runExp, ok := experiments.Get(id)
		if !ok {
			fmt.Fprintf(stderr, "topobench: unknown experiment %q (try -list)\n", id)
			failed = true
			continue
		}
		start := time.Now()
		table, err := runExp(scale)
		if err != nil {
			fmt.Fprintf(stderr, "topobench: %s failed: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Fprint(stdout, table.String())
		fmt.Fprintf(stdout, "(%s in %v)\n\n", strings.ToUpper(id), time.Since(start).Round(time.Millisecond))
		if *jsonOut {
			if err := writeJSON(table); err != nil {
				fmt.Fprintf(stderr, "topobench: %s: %v\n", id, err)
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// writeJSON serialises one experiment's table to BENCH_<ID>.json in the
// working directory: the machine-readable record a perf-tracking harness
// diffs across commits.
func writeJSON(table *experiments.Table) error {
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("BENCH_%s.json", strings.ToUpper(table.ID))
	return os.WriteFile(name, append(data, '\n'), 0o644)
}
