package topomap_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"topomap"
)

// TestServiceMapMatchesMap: a result served through the service pool must be
// bit-identical to a direct Map of the same graph.
func TestServiceMapMatchesMap(t *testing.T) {
	graphs := []*topomap.Graph{topomap.Ring(16), topomap.Torus(4, 4), topomap.Kautz(2, 2)}
	svc := topomap.NewService(topomap.ServiceOptions{Sessions: 2})
	defer svc.Close()
	for i, g := range graphs {
		want, err := topomap.Map(g, topomap.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Map(context.Background(), g)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if got.Ticks != want.Ticks || got.Messages != want.Messages ||
			got.Transactions != want.Transactions || !got.Topology.Equal(want.Topology) {
			t.Fatalf("graph %d: served result diverges from direct Map", i)
		}
		if !topomap.Verify(g, 0, got.Topology) {
			t.Fatalf("graph %d: served reconstruction does not verify", i)
		}
	}
	st := svc.Stats()
	if st.Served != uint64(len(graphs)) || st.Failed != 0 {
		t.Fatalf("service stats: %+v", st)
	}
}

// TestServiceAsyncJobs: submit-then-await with per-job roots and progress
// streaming through the public API.
func TestServiceAsyncJobs(t *testing.T) {
	svc := topomap.NewService(topomap.ServiceOptions{Sessions: 1})
	defer svc.Close()
	g := topomap.Ring(24)
	root := 7
	var mu sync.Mutex
	var events []topomap.Progress
	j, err := svc.Submit(context.Background(), g, topomap.JobOptions{
		Root:          &root,
		ProgressEvery: 1,
		Progress: func(p topomap.Progress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j.Status() != topomap.JobDone {
		t.Fatalf("status %v", j.Status())
	}
	if !topomap.Verify(g, root, res.Topology) {
		t.Fatal("rooted job reconstruction does not verify")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != res.Ticks {
		t.Fatalf("progress events %d != ticks %d", len(events), res.Ticks)
	}
	last := events[len(events)-1]
	if last.Tick > res.Ticks || last.Elapsed <= 0 {
		t.Fatalf("implausible final progress event %+v", last)
	}
}

// TestServiceBackpressureAndCancel: queue rejection surfaces ErrQueueFull
// through the public API, and Cancel aborts a queued job promptly.
func TestServiceBackpressureAndCancel(t *testing.T) {
	svc := topomap.NewService(topomap.ServiceOptions{
		Sessions:   1,
		QueueDepth: 1,
	})
	defer svc.Close()
	slow, err := svc.Submit(context.Background(), topomap.Ring(256), topomap.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot, then overflow it. The first submit may
	// still be queued for a scheduling instant, so tolerate one retry.
	var queued *topomap.Job
	for i := 0; ; i++ {
		queued, err = svc.Submit(context.Background(), topomap.Ring(8), topomap.JobOptions{})
		if err == nil {
			break
		}
		if !errors.Is(err, topomap.ErrQueueFull) || i > 5000 {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Submit(context.Background(), topomap.Ring(8), topomap.JobOptions{}); !errors.Is(err, topomap.ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	queued.Cancel()
	if _, err := queued.Await(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued job: %v", err)
	}
	if queued.Status() != topomap.JobCanceled {
		t.Fatalf("status %v", queued.Status())
	}
	slow.Cancel()
	if _, err := slow.Await(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled running job: %v", err)
	}
}

// TestServiceCloseIdempotent covers the shutdown satellite at the public
// level: double Close, Drain after Close, submit after Close.
func TestServiceCloseIdempotent(t *testing.T) {
	svc := topomap.NewService(topomap.ServiceOptions{Sessions: 1})
	if _, err := svc.Map(context.Background(), topomap.Ring(8)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal("Drain after Close must be a no-op")
	}
	if _, err := svc.Submit(context.Background(), topomap.Ring(8), topomap.JobOptions{}); !errors.Is(err, topomap.ErrServiceClosed) {
		t.Fatalf("post-Close Submit: %v", err)
	}
	if !svc.Stats().Closed {
		t.Fatal("stats must report closed")
	}
}
