package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/remap"
)

// TestGenerateAndCheckRoundTrip: generate a graph to a file, then validate
// it with -check — the CLI's two halves against each other.
func TestGenerateAndCheckRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	var out, errOut strings.Builder
	if code := run([]string{"-family", "kautz", "-n", "12", "-out", path}, &out, &errOut); code != 0 {
		t.Fatalf("generate exit code %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# kautz") {
		t.Fatalf("missing header comment:\n%s", data)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-check", "-in", path}, &out, &errOut); code != 0 {
		t.Fatalf("-check exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "valid:") {
		t.Fatalf("-check output missing verdict:\n%s", out.String())
	}
}

// TestGenerateToStdout: without -out the graph goes to stdout.
func TestGenerateToStdout(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-family", "ring", "-n", "5"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "# ring") {
		t.Fatalf("stdout missing graph:\n%s", out.String())
	}
}

// TestCheckMissingFile: a bad -in path is a clean failure.
func TestCheckMissingFile(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-check", "-in", filepath.Join(t.TempDir(), "absent.txt")}, &out, &errOut); code != 1 {
		t.Fatalf("missing file should exit 1, got %d", code)
	}
}

// TestGenBadFlag: flag-parse errors exit 2.
func TestGenBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nonsense"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag should exit 2, got %d", code)
	}
}

// TestGenerateBinaryAndCheck: -format binary emits a tmg1 frame that -check
// sniffs and validates, and that decodes to the same graph as the text run.
func TestGenerateBinaryAndCheck(t *testing.T) {
	dir := t.TempDir()
	binPath := filepath.Join(dir, "g.tmg")
	txtPath := filepath.Join(dir, "g.txt")
	var out, errOut strings.Builder
	if code := run([]string{"-family", "kautz", "-n", "12", "-format", "binary", "-out", binPath}, &out, &errOut); code != 0 {
		t.Fatalf("binary generate exit %d, stderr: %s", code, errOut.String())
	}
	if code := run([]string{"-family", "kautz", "-n", "12", "-out", txtPath}, &out, &errOut); code != 0 {
		t.Fatalf("text generate exit %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsBinaryGraph(data) {
		t.Fatalf("binary output missing tmg1 magic: % x", data[:8])
	}
	fromBin, err := graph.UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	fromTxt, err := graph.UnmarshalString(string(txt))
	if err != nil {
		t.Fatal(err)
	}
	if !fromBin.Equal(fromTxt) {
		t.Fatal("binary and text outputs decode to different graphs")
	}

	out.Reset()
	if code := run([]string{"-check", "-in", binPath}, &out, &errOut); code != 0 {
		t.Fatalf("-check on binary exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "valid:") {
		t.Fatalf("-check output missing verdict:\n%s", out.String())
	}
}

// deltaFrame is one decoded entry of a -mutate stream: the delta and the
// canonical digest of the graph it applies to.
type deltaFrame struct {
	base graph.Digest
	d    *graph.Delta
}

// readTextDeltas parses a text stream: each "patch" line follows a
// "# delta i base=<hex>" comment naming its base digest.
func readTextDeltas(t *testing.T, data []byte) []deltaFrame {
	t.Helper()
	var frames []deltaFrame
	var base graph.Digest
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if i := strings.Index(line, "base="); strings.HasPrefix(line, "#") && i >= 0 {
			raw, err := hex.DecodeString(line[i+len("base="):])
			if err != nil || len(raw) != len(base) {
				t.Fatalf("bad base comment %q", line)
			}
			copy(base[:], raw)
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d, err := graph.UnmarshalDeltaString(line)
		if err != nil {
			t.Fatalf("delta %d: %v", len(frames), err)
		}
		frames = append(frames, deltaFrame{base, d})
	}
	return frames
}

// readBinaryDeltas splits a binary stream into its tmd1 frames.
func readBinaryDeltas(t *testing.T, data []byte) []deltaFrame {
	t.Helper()
	var frames []deltaFrame
	for len(data) > 0 {
		size, err := graph.DeltaFrameSize(data)
		if err != nil || size > len(data) {
			t.Fatalf("frame %d: size %d err %v", len(frames), size, err)
		}
		base, d, err := graph.UnmarshalDeltaBinary(data[:size])
		if err != nil {
			t.Fatalf("frame %d: %v", len(frames), err)
		}
		frames = append(frames, deltaFrame{base, d})
		data = data[size:]
	}
	return frames
}

// replayDeltas replays a stream the way topomapd serves it: starting from
// the reconstruction of g, every frame's base digest must match the running
// reconstruction and remap.Patch must accept its delta, and the patched
// result must stay a valid network.
func replayDeltas(t *testing.T, g *graph.Graph, frames []deltaFrame) {
	t.Helper()
	rc, st, err := remap.Rebuild(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if rc.CanonicalDigest(0) != f.base {
			t.Fatalf("frame %d: base digest does not match the running reconstruction", i)
		}
		res, err := remap.Patch(rc, st, f.d, remap.Options{MaxDirtyFrac: 1})
		if err != nil {
			t.Fatalf("frame %d (%s): remap.Patch rejects it: %v", i, f.d, err)
		}
		rc, st = res.Graph, res.State
		if err := rc.Validate(); err != nil {
			t.Fatalf("after frame %d: %v", i, err)
		}
	}
}

// TestGenerateMutateText: -mutate writes a replayable text delta stream to
// <out>.deltas; replaying it against the running reconstruction must keep
// the network valid and match the digests recorded in the comments.
func TestGenerateMutateText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	var out, errOut strings.Builder
	if code := run([]string{"-family", "torus", "-n", "16", "-seed", "7", "-mutate", "6", "-out", path}, &out, &errOut); code != 0 {
		t.Fatalf("generate exit %d, stderr: %s", code, errOut.String())
	}
	txt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.UnmarshalString(string(txt))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path + ".deltas")
	if err != nil {
		t.Fatal(err)
	}
	frames := readTextDeltas(t, data)
	if len(frames) != 6 {
		t.Fatalf("parsed %d deltas, want 6", len(frames))
	}
	replayDeltas(t, g, frames)

	// Same seed must reproduce the byte-identical stream.
	path2 := filepath.Join(t.TempDir(), "g.txt")
	if code := run([]string{"-family", "torus", "-n", "16", "-seed", "7", "-mutate", "6", "-out", path2}, &out, &errOut); code != 0 {
		t.Fatalf("regenerate exit %d", code)
	}
	data2, err := os.ReadFile(path2 + ".deltas")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("delta stream is not deterministic per seed")
	}
}

// TestGenerateMutateBinary: binary mode emits back-to-back tmd1 frames whose
// base digests chain along the evolving reconstruction.
func TestGenerateMutateBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.tmg")
	var out, errOut strings.Builder
	if code := run([]string{"-family", "ring", "-n", "24", "-seed", "3", "-format", "binary", "-mutate", "4", "-out", path}, &out, &errOut); code != 0 {
		t.Fatalf("generate exit %d, stderr: %s", code, errOut.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.UnmarshalBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path + ".deltas")
	if err != nil {
		t.Fatal(err)
	}
	frames := readBinaryDeltas(t, data)
	if len(frames) != 4 {
		t.Fatalf("decoded %d frames, want 4", len(frames))
	}
	replayDeltas(t, g, frames)
}

// TestMutateStreamsReplayAgainstReconstruction: for families whose
// generated labels are not already a DFS preorder (torus, er, kautz) as
// well as the ring, every frame of every stream — text and binary, seeds
// 1–3 — is bound to the running reconstruction's digest and accepted by
// remap.Patch, exactly as a topomapd PATCH chain would consume it.
func TestMutateStreamsReplayAgainstReconstruction(t *testing.T) {
	for _, fam := range []string{"ring", "torus", "er", "kautz"} {
		for seed := 1; seed <= 3; seed++ {
			for _, format := range []string{"text", "binary"} {
				path := filepath.Join(t.TempDir(), "g")
				var out, errOut strings.Builder
				args := []string{"-family", fam, "-n", "64", "-seed", fmt.Sprint(seed),
					"-format", format, "-mutate", "8", "-out", path}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("%s seed %d %s: exit %d, stderr: %s", fam, seed, format, code, errOut.String())
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				g, err := readGraph(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path + ".deltas")
				if err != nil {
					t.Fatal(err)
				}
				read := readBinaryDeltas
				if format == "text" {
					read = readTextDeltas
				}
				frames := read(t, data)
				if len(frames) != 8 {
					t.Fatalf("%s seed %d %s: %d frames, want 8", fam, seed, format, len(frames))
				}
				replayDeltas(t, g, frames)
			}
		}
	}
}

// TestGenMutateRequiresOut: -mutate without -out is a usage error.
func TestGenMutateRequiresOut(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-family", "ring", "-n", "8", "-mutate", "3"}, &out, &errOut); code != 2 {
		t.Fatalf("-mutate without -out should exit 2, got %d", code)
	}
	if code := run([]string{"-family", "ring", "-n", "8", "-mutate", "-1", "-out", "x"}, &out, &errOut); code != 2 {
		t.Fatalf("negative -mutate should exit 2, got %d", code)
	}
}

// TestGenBadFormat: an unknown -format is a usage error.
func TestGenBadFormat(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-format", "xml"}, &out, &errOut); code != 2 {
		t.Fatalf("bad format should exit 2, got %d", code)
	}
}
