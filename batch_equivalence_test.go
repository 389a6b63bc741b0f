package topomap_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"topomap"
)

// mapBatchReference is the pre-service-layer MapBatch, verbatim: a one-shot
// worker pool claiming graphs in index order over per-worker sessions. The
// service-backed MapBatch must be observationally identical to it — same
// results bit-for-bit, same per-item error categories, same batch error —
// across families, pool sizes, and failure modes. It is kept only as the
// oracle of TestMapBatchMatchesReference.
func mapBatchReference(ctx context.Context, graphs []*topomap.Graph, opts topomap.BatchOptions) ([]topomap.BatchItem, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	items := make([]topomap.BatchItem, len(graphs))
	if len(graphs) == 0 {
		return items, ctx.Err()
	}
	sessions := opts.Sessions
	if sessions <= 0 {
		sessions = runtime.GOMAXPROCS(0)
	}
	if sessions > len(graphs) {
		sessions = len(graphs)
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		next     int
		firstErr error
		firstIdx = len(graphs)
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(graphs) {
			return -1
		}
		i := next
		next++
		return i
	}
	recordErr := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := topomap.NewSession(opts.Options)
			for {
				i := claim()
				if i < 0 {
					return
				}
				if err := ctx.Err(); err != nil {
					items[i] = topomap.BatchItem{Err: err}
					continue
				}
				res, err := s.MapContext(ctx, graphs[i])
				items[i] = topomap.BatchItem{Result: res, Err: err}
				if err != nil {
					if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
						recordErr(i, err)
						if opts.StopOnError {
							cancel()
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if err := parent.Err(); err != nil {
		return items, err
	}
	if opts.StopOnError && firstErr != nil {
		return items, fmt.Errorf("topomap: batch graph %d: %w", firstIdx, firstErr)
	}
	return items, nil
}

// brokenGraph builds a graph that fails validation (no wired ports on node
// 2) with a deterministic error message.
func brokenGraph() *topomap.Graph {
	bad := topomap.NewGraph(3, 2)
	bad.MustConnect(0, 1, 1, 1)
	bad.MustConnect(1, 1, 0, 1)
	return bad
}

// errCategory reduces an error to the comparable part of the contract: the
// context-artifact class, or the full message for genuine failures (which
// are deterministic — validation errors, bad roots). Cancellation artifacts
// embed the abort tick, which is scheduling-dependent by nature in both
// implementations, so only their class is compared.
func errCategory(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return err.Error()
	}
}

// TestMapBatchMatchesReference pins the service-backed MapBatch to the
// pre-refactor implementation across graph families, pool sizes, and
// failure modes: results bit-identical, per-item errors in the same
// category (with identical messages for genuine failures), and the same
// batch-level error.
func TestMapBatchMatchesReference(t *testing.T) {
	mixed := []*topomap.Graph{
		topomap.Ring(12),
		topomap.Torus(4, 5),
		topomap.Kautz(2, 2),
		topomap.BiRing(9),
		topomap.Hypercube(4),
		topomap.Line(7),
		topomap.TreeLoop(3, topomap.RandomPermutation(8, 5)),
		topomap.Ring(12), // duplicate input
	}
	withBad := func(at int) []*topomap.Graph {
		out := append([]*topomap.Graph(nil), mixed...)
		out[at] = brokenGraph()
		return out
	}
	expired := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	deadlined := func() context.Context {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		_ = cancel
		return ctx
	}

	cases := []struct {
		name string
		ctx  func() context.Context
		gs   []*topomap.Graph
		opts topomap.BatchOptions
		// deterministic marks scenarios whose per-item outcomes do not
		// depend on goroutine scheduling, so items can be compared 1:1.
		deterministic bool
	}{
		{"clean", nil, mixed, topomap.BatchOptions{}, true},
		{"per-item-error-middle", nil, withBad(3), topomap.BatchOptions{}, true},
		{"per-item-error-first-and-last", nil, append(withBad(0), brokenGraph()), topomap.BatchOptions{}, true},
		{"stop-on-error-first-seq", nil, withBad(0), topomap.BatchOptions{StopOnError: true, Sessions: 1}, true},
		{"stop-on-error-last-seq", nil, withBad(len(mixed) - 1), topomap.BatchOptions{StopOnError: true, Sessions: 1}, true},
		{"stop-on-error-racing", nil, withBad(1), topomap.BatchOptions{StopOnError: true}, false},
		{"pre-cancelled", expired, mixed, topomap.BatchOptions{}, true},
		{"pre-deadline", deadlined, mixed, topomap.BatchOptions{}, true},
	}
	pools := []int{1, 2, 3}
	for _, tc := range cases {
		for _, pool := range pools {
			if tc.opts.Sessions != 0 && tc.opts.Sessions != pool {
				continue // scenario pins its own pool size
			}
			t.Run(fmt.Sprintf("%s/pool%d", tc.name, pool), func(t *testing.T) {
				opts := tc.opts
				if opts.Sessions == 0 {
					opts.Sessions = pool
				}
				ctx, refCtx := context.Context(nil), context.Context(nil)
				if tc.ctx != nil {
					ctx, refCtx = tc.ctx(), tc.ctx()
				}
				got, gotErr := topomap.MapBatch(ctx, tc.gs, opts)
				want, wantErr := mapBatchReference(refCtx, tc.gs, opts)

				if errCategory(gotErr) != errCategory(wantErr) {
					t.Fatalf("batch error diverges:\n  new: %v\n  ref: %v", gotErr, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("item count %d vs %d", len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if (g.Result == nil) == (g.Err == nil) {
						t.Fatalf("item %d: not exactly one of Result/Err: %+v", i, g)
					}
					if !tc.deterministic {
						// Racing scenario: assert the invariant shape only.
						continue
					}
					if (g.Result == nil) != (w.Result == nil) {
						t.Fatalf("item %d: result presence diverges (new=%v ref=%v)", i, g.Err, w.Err)
					}
					if errCategory(g.Err) != errCategory(w.Err) {
						t.Fatalf("item %d error diverges:\n  new: %v\n  ref: %v", i, g.Err, w.Err)
					}
					if g.Result != nil {
						if g.Result.Ticks != w.Result.Ticks ||
							g.Result.Messages != w.Result.Messages ||
							g.Result.Transactions != w.Result.Transactions ||
							!g.Result.Topology.Equal(w.Result.Topology) {
							t.Fatalf("item %d result diverges from reference", i)
						}
					}
				}
			})
		}
	}
}

// TestMapBatchStopOnErrorAbortsInFlight is the explicit promptness test for
// the StopOnError contract: an in-flight run observes cancellation between
// pulses, so a slow ring is aborted almost immediately when a lower-index
// item fails — the batch must return in a small fraction of the ring's full
// mapping time. (Before the service layer this was only asserted indirectly
// through E13.)
func TestMapBatchStopOnErrorAbortsInFlight(t *testing.T) {
	// Ring-256 maps in seconds; the index-0 failure lands in microseconds
	// and must cancel the ring's run between clock ticks.
	graphs := []*topomap.Graph{brokenGraph(), topomap.Ring(256)}
	start := time.Now()
	items, err := topomap.MapBatch(context.Background(), graphs,
		topomap.BatchOptions{Sessions: 2, StopOnError: true})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("StopOnError batch must return the causal error")
	}
	if !strings.Contains(err.Error(), "batch graph 0") || errors.Is(err, context.Canceled) {
		t.Fatalf("error must be attributed to graph 0, got: %v", err)
	}
	if items[0].Err == nil {
		t.Fatal("failing item must carry its error")
	}
	if items[1].Err == nil || !errors.Is(items[1].Err, context.Canceled) {
		t.Fatalf("in-flight ring must be aborted with a cancellation, got: %v", items[1].Err)
	}
	if items[1].Result != nil {
		t.Fatal("aborted run must not carry a result")
	}
	// Generous bound: the full ring-256 map takes well over this even on
	// fast hardware, so finishing under it proves the mid-run abort.
	if elapsed > 3*time.Second {
		t.Fatalf("StopOnError abort was not prompt: batch took %v", elapsed)
	}
}
