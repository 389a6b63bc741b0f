package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topomap/internal/experiments"
)

// TestListFlag: -list prints every registered experiment id and exits 0.
func TestListFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit code %d, stderr: %s", code, errOut.String())
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %s:\n%s", id, out.String())
		}
	}
}

// TestUnknownExperiment: an unknown id must fail with a helpful message.
func TestUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"e99"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown experiment should exit 1, got %d", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Fatalf("missing diagnostic: %s", errOut.String())
	}
}

// TestBadFlag: flag-parse errors exit 2.
func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nonsense"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag should exit 2, got %d", code)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile must write non-empty pprof
// files on clean exit (alongside a real, small experiment run).
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment run skipped in -short mode")
	}
	t.Chdir(t.TempDir())
	var out, errOut strings.Builder
	code := run([]string{"-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof", "e3"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("e3 run exit code %d, stderr: %s", code, errOut.String())
	}
	for _, f := range []string{"cpu.pprof", "mem.pprof"} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("%s not written: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
	}
}

// TestRunExperimentWithJSON runs one small real experiment end to end and
// checks both the rendered table and the machine-readable BENCH_<ID>.json.
func TestRunExperimentWithJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment run skipped in -short mode")
	}
	t.Chdir(t.TempDir())
	var out, errOut strings.Builder
	if code := run([]string{"-json", "e3"}, &out, &errOut); code != 0 {
		t.Fatalf("e3 run exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "== E3:") {
		t.Fatalf("table header missing:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(".", "BENCH_E3.json"))
	if err != nil {
		t.Fatalf("-json should write BENCH_E3.json: %v", err)
	}
	var table experiments.Table
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatalf("BENCH_E3.json does not parse: %v", err)
	}
	if table.ID != "E3" || len(table.Rows) == 0 || len(table.Columns) == 0 {
		t.Fatalf("BENCH_E3.json incomplete: %+v", table)
	}
	if len(table.Rows[0]) != len(table.Columns) {
		t.Fatalf("row width %d != column count %d", len(table.Rows[0]), len(table.Columns))
	}
}
