package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
)

// TestMapRingEndToEnd: a tiny full protocol run through the CLI surface,
// checking the verification verdict, statistics, and edge output.
func TestMapRingEndToEnd(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-family", "ring", "-n", "8", "-stats", "-edges"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"verify:  EXACT", "stats:", "steps/tick=", "edge "} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestMapMatchesRunOneLoop: the CLI's output, protocol trace included, is
// identical run to run, and its map matches per-tick stepping (a loop of
// sim.Engine.RunOne on the same network).
func TestMapMatchesRunOneLoop(t *testing.T) {
	output := func(args ...string) string {
		t.Helper()
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
		}
		return out.String()
	}
	traced := output("-family", "kautz", "-n", "12", "-stats", "-trace")
	if again := output("-family", "kautz", "-n", "12", "-stats", "-trace"); again != traced {
		t.Fatalf("two traced runs differ:\n%s\n---\n%s", traced, again)
	}
	var want string
	for _, l := range strings.Split(traced, "\n") {
		if strings.HasPrefix(l, "mapped:") {
			want = l
		}
	}

	g, err := loadGraph("", "kautz", 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := mapper.New(g.Delta())
	eng := sim.New(g, sim.Options{Transcript: m.Process}, gtd.NewFactory(gtd.DefaultConfig()))
	for {
		more, err := eng.RunOne()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	r, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	loop := fmt.Sprintf("mapped:  N=%d edges=%d in %d ticks, %d messages, %d transactions",
		r.N(), r.NumEdges(), st.Ticks, st.NonBlankMessages, m.Transactions)
	if loop != want {
		t.Fatalf("RunOne loop diverges from the CLI:\nCLI:  %s\nloop: %s", want, loop)
	}
}

// TestMapDotOutput: -dot writes a Graphviz file.
func TestMapDotOutput(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "mapped.dot")
	var out, errOut strings.Builder
	if code := run([]string{"-family", "ring", "-n", "6", "-dot", dot}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Fatalf("not a dot file:\n%s", data)
	}
}

// TestMapBadFamily: generator failures surface as exit 1 with a message.
func TestMapBadFamily(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-family", "nosuch", "-n", "8"}, &out, &errOut); code != 1 {
		t.Fatalf("bad family should exit 1, got %d", code)
	}
	if errOut.Len() == 0 {
		t.Fatal("expected a diagnostic on stderr")
	}
}

// TestMapBadFlag: flag-parse errors exit 2.
func TestMapBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nonsense"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag should exit 2, got %d", code)
	}
}

// TestBinaryInputAndOutput: a tmg1 input file is sniffed and mapped, and
// -out/-format binary stores a reconstruction equal to the text one.
func TestBinaryInputAndOutput(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.tmg")
	g, err := graph.Build(graph.FamilyKautz, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	outBin := filepath.Join(dir, "mapped.tmg")
	outTxt := filepath.Join(dir, "mapped.txt")
	var out, errOut strings.Builder
	if code := run([]string{"-in", inPath, "-out", outBin, "-format", "binary"}, &out, &errOut); code != 0 {
		t.Fatalf("binary run exit %d, stderr: %s\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "EXACT") {
		t.Fatalf("binary-input run not exact:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-in", inPath, "-out", outTxt}, &out, &errOut); code != 0 {
		t.Fatalf("text run exit %d, stderr: %s", code, errOut.String())
	}

	binData, err := os.ReadFile(outBin)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := graph.UnmarshalBinary(binData)
	if err != nil {
		t.Fatal(err)
	}
	txtData, err := os.ReadFile(outTxt)
	if err != nil {
		t.Fatal(err)
	}
	fromTxt, err := graph.UnmarshalString(string(txtData))
	if err != nil {
		t.Fatal(err)
	}
	if !fromBin.Equal(fromTxt) {
		t.Fatal("binary and text -out files decode to different topologies")
	}
}

// TestMapBadFormat: an unknown -format is a usage error.
func TestMapBadFormat(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-format", "json"}, &out, &errOut); code != 2 {
		t.Fatalf("bad format should exit 2, got %d", code)
	}
}
