package topomap_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"topomap"
)

func TestMapErrorPaths(t *testing.T) {
	g := topomap.NewGraph(3, 2)
	g.MustConnect(0, 1, 1, 1)
	g.MustConnect(1, 1, 0, 1)
	// Node 2 unwired: invalid network.
	if _, err := topomap.Map(g, topomap.Options{}); err == nil {
		t.Fatal("invalid network must be rejected")
	}
	valid := topomap.Ring(4)
	if _, err := topomap.Map(valid, topomap.Options{Root: -1}); err == nil {
		t.Fatal("negative root must be rejected")
	}
	if _, err := topomap.Map(valid, topomap.Options{Root: 4}); err == nil {
		t.Fatal("root beyond N must be rejected")
	}
	if _, err := topomap.Map(valid, topomap.Options{MaxTicks: 3}); err == nil {
		t.Fatal("a 3-tick budget cannot complete the protocol")
	}
}

func TestMapAllFamilies(t *testing.T) {
	for _, fam := range topomap.AllFamilies() {
		g, err := topomap.Build(fam, 10, 2)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		res, err := topomap.Map(g, topomap.Options{Validate: true})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if !topomap.Verify(g, 0, res.Topology) {
			t.Errorf("%s: inexact map", fam)
		}
	}
}

func TestMapCustomSpeedsStillExact(t *testing.T) {
	// Slowing UNMARK to speed-1 is a conservative change (more cleanup
	// slack); the protocol must still map exactly.
	g := topomap.Torus(3, 4)
	res, err := topomap.Map(g, topomap.Options{
		Speeds: &topomap.Speeds{Snake: 2, Loop: 2, Unmark: 2, Kill: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !topomap.Verify(g, 0, res.Topology) {
		t.Fatal("conservative speed change broke the map")
	}
}

func TestSendBackwardErrorPaths(t *testing.T) {
	g := topomap.Ring(5)
	if _, err := topomap.SendBackward(g, 0, 2, topomap.PayloadPing, topomap.Options{}); err == nil {
		t.Fatal("unwired in-port must be rejected")
	}
	if _, err := topomap.SendBackward(g, 7, 1, topomap.PayloadPing, topomap.Options{}); err == nil {
		t.Fatal("node out of range must be rejected")
	}
}

func TestSendBackwardEveryRingNode(t *testing.T) {
	g := topomap.Ring(6)
	for v := 0; v < g.N(); v++ {
		res, err := topomap.SendBackward(g, v, 1, topomap.PayloadPong, topomap.Options{})
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		want := (v + 5) % 6
		if res.Target != want {
			t.Fatalf("node %d: delivered to %d, want %d", v, res.Target, want)
		}
	}
}

func TestSignalRootErrorPaths(t *testing.T) {
	g := topomap.Ring(5)
	if _, err := topomap.SignalRoot(g, 0, true, 1, 1, topomap.Options{}); err == nil {
		t.Fatal("the root cannot signal itself")
	}
	if _, err := topomap.SignalRoot(g, 9, true, 1, 1, topomap.Options{}); err == nil {
		t.Fatal("node out of range must be rejected")
	}
}

func TestSignalRootBackToken(t *testing.T) {
	g := topomap.BiRing(7)
	res, err := topomap.SignalRoot(g, 3, false, 0, 0, topomap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Forward {
		t.Fatal("expected a BACK token")
	}
	if len(res.PathToRoot) != g.Distance(3, 0) || len(res.PathFromRoot) != g.Distance(0, 3) {
		t.Fatalf("path lengths %d/%d, want %d/%d", len(res.PathToRoot),
			len(res.PathFromRoot), g.Distance(3, 0), g.Distance(0, 3))
	}
}

func TestGraphSerializationThroughAPI(t *testing.T) {
	g := topomap.Kautz(2, 2)
	s := g.MarshalString()
	h, err := topomap.UnmarshalGraphString(s)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("serialisation round-trip failed")
	}
	if !strings.HasPrefix(s, "topomap-graph v1") {
		t.Fatal("format header missing")
	}
}

func TestResultStatsPlausible(t *testing.T) {
	g := topomap.BiRing(9)
	res, err := topomap.Map(g, topomap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every edge is reported by exactly one FORWARD transaction; BACKs
	// add at most one transaction per edge.
	if res.Transactions < g.NumEdges() || res.Transactions > 2*g.NumEdges() {
		t.Fatalf("transactions %d outside [E, 2E] = [%d, %d]",
			res.Transactions, g.NumEdges(), 2*g.NumEdges())
	}
	if res.Messages <= int64(res.Ticks) {
		t.Fatalf("message count %d implausible for %d ticks", res.Messages, res.Ticks)
	}
}

// TestSessionMatchesMap: a reused session must return results identical to
// one-shot Map across families (the public face of session equivalence).
func TestSessionMatchesMap(t *testing.T) {
	s := topomap.NewSession(topomap.Options{})
	for _, fam := range topomap.AllFamilies() {
		g, err := topomap.Build(fam, 10, 2)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		fresh, err := topomap.Map(g, topomap.Options{})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		reused, err := s.Map(g)
		if err != nil {
			t.Fatalf("%s reused: %v", fam, err)
		}
		if reused.Ticks != fresh.Ticks || reused.Messages != fresh.Messages ||
			reused.Transactions != fresh.Transactions || !reused.Topology.Equal(fresh.Topology) {
			t.Fatalf("%s: session result diverges from Map", fam)
		}
	}
}

// TestSessionSteadyStateAllocs is the allocation regression test: second-
// and-later runs of a reused session must be near-zero-allocation — only
// the returned Result and reconstruction graph (a handful of allocations)
// may remain. A regression that reintroduces per-run or per-transaction
// allocation (engine buffers, automata, converters, transcript copies,
// signature keys) trips the bound immediately.
func TestSessionSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *topomap.Graph
	}{
		{"ring8", topomap.Ring(8)},
		{"kautz2.2", topomap.Kautz(2, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := topomap.NewSession(topomap.Options{})
			if _, err := s.Map(tc.g); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := s.Map(tc.g); err != nil {
					t.Fatal(err)
				}
			})
			// 6 today: Result, RunResult, and the reconstruction
			// graph's four allocations. No slack — the memory-lean
			// engine keeps every per-run buffer (planes, scratch,
			// stamps, automata) recycled, and a single reintroduced
			// per-run allocation should fail loudly.
			if allocs > 6 {
				t.Fatalf("steady-state session run allocates too much: %.0f allocs/run", allocs)
			}
		})
	}
}

// TestMapBatchMatchesSequential: a batch at several pool sizes must return
// per-item results identical to sequential Map calls, in input order.
func TestMapBatchMatchesSequential(t *testing.T) {
	graphs := []*topomap.Graph{
		topomap.Ring(12),
		topomap.Torus(4, 5),
		topomap.Kautz(2, 2),
		topomap.BiRing(9),
		topomap.Ring(12), // duplicate input
		topomap.Hypercube(4),
	}
	want := make([]*topomap.Result, len(graphs))
	for i, g := range graphs {
		var err error
		want[i], err = topomap.Map(g, topomap.Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, pool := range []int{1, 2, 4} {
		items, err := topomap.MapBatch(context.Background(), graphs,
			topomap.BatchOptions{Sessions: pool})
		if err != nil {
			t.Fatalf("sessions=%d: %v", pool, err)
		}
		if len(items) != len(graphs) {
			t.Fatalf("sessions=%d: %d items for %d graphs", pool, len(items), len(graphs))
		}
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("sessions=%d item %d: %v", pool, i, it.Err)
			}
			if it.Result.Ticks != want[i].Ticks || it.Result.Messages != want[i].Messages ||
				!it.Result.Topology.Equal(want[i].Topology) {
				t.Fatalf("sessions=%d item %d diverges from sequential Map", pool, i)
			}
		}
	}
}

// TestMapBatchPerItemErrors: the default policy records failures per item
// and maps everything else.
func TestMapBatchPerItemErrors(t *testing.T) {
	bad := topomap.NewGraph(3, 2)
	bad.MustConnect(0, 1, 1, 1)
	bad.MustConnect(1, 1, 0, 1)
	graphs := []*topomap.Graph{topomap.Ring(8), bad, topomap.Kautz(2, 2)}
	items, err := topomap.MapBatch(context.Background(), graphs,
		topomap.BatchOptions{Sessions: 2})
	if err != nil {
		t.Fatalf("per-item policy must not fail the batch: %v", err)
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("healthy graphs must map: %v / %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("invalid graph must carry a per-item error")
	}
	if !topomap.Verify(graphs[2], 0, items[2].Result.Topology) {
		t.Fatal("graph after the failure mapped inexactly")
	}
}

// TestMapBatchStopOnError: the first (lowest-index) error cancels the rest
// and is returned as the batch error.
func TestMapBatchStopOnError(t *testing.T) {
	bad := topomap.NewGraph(3, 2)
	bad.MustConnect(0, 1, 1, 1)
	bad.MustConnect(1, 1, 0, 1)
	graphs := []*topomap.Graph{bad, topomap.Ring(8), topomap.Kautz(2, 2)}
	items, err := topomap.MapBatch(context.Background(), graphs,
		topomap.BatchOptions{Sessions: 1, StopOnError: true})
	if err == nil {
		t.Fatal("StopOnError batch must return the first error")
	}
	if items[0].Err == nil {
		t.Fatal("failing item must carry its error")
	}
	// With one session the remaining graphs are skipped after the cancel.
	for i := 1; i < len(items); i++ {
		if items[i].Result != nil && items[i].Err != nil {
			t.Fatalf("item %d has both result and error", i)
		}
	}
}

// TestMapBatchContextCancelled: a cancelled context aborts the batch, marks
// unfinished items, and returns the context error.
func TestMapBatchContextCancelled(t *testing.T) {
	graphs := make([]*topomap.Graph, 16)
	for i := range graphs {
		graphs[i] = topomap.Torus(4, 4)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items, err := topomap.MapBatch(ctx, graphs,
		topomap.BatchOptions{Sessions: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	for i, it := range items {
		if it.Err == nil {
			t.Fatalf("item %d must carry the cancellation error", i)
		}
	}
}

// TestMapBatchEmpty: an empty batch returns no items and no error.
func TestMapBatchEmpty(t *testing.T) {
	items, err := topomap.MapBatch(context.Background(), nil, topomap.BatchOptions{})
	if err != nil || len(items) != 0 {
		t.Fatalf("empty batch: items=%d err=%v", len(items), err)
	}
}

// TestMapBatchReleasesSessions: no goroutines (session pools or batch
// workers) survive a completed or cancelled batch.
func TestMapBatchReleasesSessions(t *testing.T) {
	graphs := []*topomap.Graph{topomap.Torus(4, 4), topomap.Torus(4, 4), topomap.Ring(16)}
	before := runtime.NumGoroutine()
	if _, err := topomap.MapBatch(context.Background(), graphs,
		topomap.BatchOptions{Sessions: 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("batch leaked goroutines: %d before, %d after", before, got)
	}
}

// TestMapBatchSharedGraph: the same *Graph object may appear many times in
// a batch (and be validated concurrently by several sessions) — this is the
// regression test for the Validate-memoization data race, exercised under
// -race in CI.
func TestMapBatchSharedGraph(t *testing.T) {
	g := topomap.Torus(4, 4)
	graphs := make([]*topomap.Graph, 8)
	for i := range graphs {
		graphs[i] = g // one shared object, not copies
	}
	items, err := topomap.MapBatch(context.Background(), graphs,
		topomap.BatchOptions{Sessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if it.Result.Ticks != items[0].Result.Ticks {
			t.Fatalf("item %d diverged on a shared graph", i)
		}
	}
}

// TestMapBatchStopOnErrorAttribution: the batch error must name the causal
// failure, not a lower-index run that was merely aborted by the resulting
// cancellation.
func TestMapBatchStopOnErrorAttribution(t *testing.T) {
	bad := topomap.NewGraph(3, 2)
	bad.MustConnect(0, 1, 1, 1)
	bad.MustConnect(1, 1, 0, 1)
	// Index 0 is a long-running valid graph; index 1 fails validation
	// immediately. With two sessions, the cancel from index 1 typically
	// lands while index 0 is still in flight — whatever the
	// interleaving, the reported error must be index 1's.
	graphs := []*topomap.Graph{topomap.Torus(5, 5), bad}
	_, err := topomap.MapBatch(context.Background(), graphs,
		topomap.BatchOptions{Sessions: 2, StopOnError: true})
	if err == nil {
		t.Fatal("StopOnError batch must return the causal error")
	}
	if !strings.Contains(err.Error(), "batch graph 1") {
		t.Fatalf("error must be attributed to the failing graph, got: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation artifact reported as the batch error: %v", err)
	}
}
