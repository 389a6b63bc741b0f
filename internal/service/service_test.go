package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topomap/internal/core"
	"topomap/internal/graph"
	"topomap/internal/sim"
)

// await is the test helper: submit must have succeeded, the job must finish.
func await(t *testing.T, j *Job) (*core.RunResult, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := j.Await(ctx)
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil {
		t.Fatal("job did not finish in time")
	}
	return res, err
}

// TestPoolMatchesDirectRun: a pooled run must be bit-identical to a direct
// core.Run of the same graph, at every pool size, warm or cold.
func TestPoolMatchesDirectRun(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Ring(12),
		graph.Torus(4, 5),
		graph.Kautz(2, 2),
		graph.BiRing(9),
		graph.Ring(12),
	}
	want := make([]*core.RunResult, len(graphs))
	for i, g := range graphs {
		var err error
		want[i], err = core.Run(g, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int{1, 2, 4} {
		p := New(Options{Size: size, QueueDepth: len(graphs)})
		jobs := make([]*Job, len(graphs))
		for i, g := range graphs {
			var err error
			jobs[i], err = p.Submit(context.Background(), g, JobOptions{})
			if err != nil {
				t.Fatalf("size=%d submit %d: %v", size, i, err)
			}
		}
		for i, j := range jobs {
			res, err := await(t, j)
			if err != nil {
				t.Fatalf("size=%d job %d: %v", size, i, err)
			}
			if res.Stats.Ticks != want[i].Stats.Ticks ||
				res.Stats.NonBlankMessages != want[i].Stats.NonBlankMessages ||
				res.Transactions != want[i].Transactions ||
				!res.Topology.Equal(want[i].Topology) {
				t.Fatalf("size=%d job %d diverges from direct run", size, i)
			}
			if j.Status() != StatusDone || !j.Ran() {
				t.Fatalf("size=%d job %d: status=%v ran=%v", size, i, j.Status(), j.Ran())
			}
		}
		st := p.Stats()
		if st.Served != uint64(len(graphs)) || st.Failed != 0 || st.Canceled != 0 {
			t.Fatalf("size=%d stats: %+v", size, st)
		}
		// Every serve beyond each session's first is warm.
		minWarm := uint64(len(graphs) - size)
		if st.WarmServes < minWarm {
			t.Fatalf("size=%d warm serves %d < %d", size, st.WarmServes, minWarm)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolRootOverride: JobOptions.Root must override the pool's configured
// root for that job only.
func TestPoolRootOverride(t *testing.T) {
	p := New(Options{Size: 1})
	defer p.Close()
	g := graph.Ring(9)
	root := 4
	j, err := p.Submit(context.Background(), g, JobOptions{Root: &root})
	if err != nil {
		t.Fatal(err)
	}
	res, err := await(t, j)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Exact(g, root, res.Topology) {
		t.Fatal("rooted job did not reconstruct from the override root")
	}
	// And the next job reverts to the pool default (root 0).
	j, err = p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err = await(t, j)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Exact(g, 0, res.Topology) {
		t.Fatal("default-root job did not reconstruct from root 0")
	}
}

// TestPoolBackpressureReject: with no waiting room and one busy session, a
// second submit is rejected with ErrQueueFull and counted.
func TestPoolBackpressureReject(t *testing.T) {
	p := New(Options{Size: 1, QueueDepth: -1})
	defer p.Close()
	// The first submit hands the job straight to the idle worker (the
	// queue is unbuffered), which claims and runs it. The worker goroutine
	// may not have parked on the queue yet, so retry the handoff briefly.
	var j *Job
	var err error
	for i := 0; ; i++ {
		j, err = p.Submit(context.Background(), graph.Ring(128), JobOptions{})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) || i > 5000 {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	rejectedBefore := p.Stats().Rejected
	// The worker has received the job (the unbuffered send completed), so
	// a second submit has no receiver and no buffer: reject.
	if _, err := p.Submit(context.Background(), graph.Ring(8), JobOptions{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	if st := p.Stats(); st.Rejected != rejectedBefore+1 {
		t.Fatalf("rejected count %d, want %d", st.Rejected, rejectedBefore+1)
	}
	j.Cancel()
	if _, err := await(t, j); err == nil {
		t.Fatal("canceled job must not succeed")
	}
}

// TestPoolBackpressureBlock: with the blocking policy a submit over a full
// queue waits for space instead of rejecting, and aborts when its context
// dies.
func TestPoolBackpressureBlock(t *testing.T) {
	p := New(Options{Size: 1, QueueDepth: -1, Block: true})
	defer p.Close()
	first, err := p.Submit(context.Background(), graph.Ring(64), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// This submit blocks until the running job finishes and the worker
	// comes back to the queue.
	second, err := p.Submit(context.Background(), graph.Ring(8), JobOptions{})
	if err != nil {
		t.Fatalf("blocking submit must wait, not fail: %v", err)
	}
	if _, err := await(t, first); err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, second); err != nil {
		t.Fatal(err)
	}

	// A blocked submit whose context dies returns the context error.
	third, err := p.Submit(context.Background(), graph.Ring(128), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Submit(ctx, graph.Ring(8), JobOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded from blocked submit, got %v", err)
	}
	third.Cancel()
	<-third.Done()
}

// TestPoolFIFO: a single-session pool serves jobs in submission order.
func TestPoolFIFO(t *testing.T) {
	p := New(Options{Size: 1, QueueDepth: 16})
	defer p.Close()
	var order []int
	var mu sync.Mutex
	jobs := make([]*Job, 8)
	for i := range jobs {
		i := i
		var err error
		jobs[i], err = p.Submit(context.Background(), graph.Ring(8), JobOptions{
			ProgressEvery: 1,
			Progress: func(Progress) {
				mu.Lock()
				if len(order) == 0 || order[len(order)-1] != i {
					order = append(order, i)
				}
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if _, err := await(t, j); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("jobs served out of order: %v", order)
		}
	}
}

// TestPoolProgressEvents: a job's progress sink sees monotonically
// increasing ticks at the requested granularity, and a final snapshot
// consistent with the run's statistics.
func TestPoolProgressEvents(t *testing.T) {
	p := New(Options{Size: 1})
	defer p.Close()
	var events []Progress
	j, err := p.Submit(context.Background(), graph.Ring(32), JobOptions{
		ProgressEvery: 1,
		Progress:      func(pr Progress) { events = append(events, pr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := await(t, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Tick <= events[i-1].Tick {
			t.Fatalf("non-monotonic progress ticks at %d: %v -> %v", i, events[i-1], events[i])
		}
	}
	last := events[len(events)-1]
	if last.Tick > res.Stats.Ticks || last.Messages > res.Stats.NonBlankMessages {
		t.Fatalf("progress overshot the run: %+v vs %+v", last, res.Stats)
	}
	if len(events) != res.Stats.Ticks {
		t.Fatalf("ProgressEvery=1 must fire per tick: %d events for %d ticks", len(events), res.Stats.Ticks)
	}

	// Coarser granularity thins the stream.
	var coarse int
	j, err = p.Submit(context.Background(), graph.Ring(32), JobOptions{
		ProgressEvery: 64,
		Progress:      func(Progress) { coarse++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	if coarse >= len(events) {
		t.Fatalf("ProgressEvery=64 fired %d times, per-tick fired %d", coarse, len(events))
	}
}

// TestPoolCancelQueued: cancelling a queued job finishes it immediately with
// its context error; the worker later skips the corpse.
func TestPoolCancelQueued(t *testing.T) {
	p := New(Options{Size: 1, QueueDepth: 4})
	defer p.Close()
	slow, err := p.Submit(context.Background(), graph.Ring(128), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := p.Submit(context.Background(), graph.Ring(8), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	// Await must return promptly — well before the slow job frees the
	// session.
	start := time.Now()
	_, qerr := queued.Await(context.Background())
	if !errors.Is(qerr, context.Canceled) {
		t.Fatalf("canceled queued job: %v", qerr)
	}
	if queued.Status() != StatusCanceled || queued.Ran() {
		t.Fatalf("status=%v ran=%v", queued.Status(), queued.Ran())
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancel of a queued job must not wait for the session")
	}
	if _, err := await(t, slow); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Canceled != 1 || st.Served != 1 {
		t.Fatalf("stats after queued cancel: %+v", st)
	}
}

// TestPoolCancelRunning: cancelling a running job aborts the engine between
// clock ticks; the session stays healthy for the next job.
func TestPoolCancelRunning(t *testing.T) {
	p := New(Options{Size: 1})
	defer p.Close()
	var once sync.Once
	started := make(chan struct{})
	j, err := p.Submit(context.Background(), graph.Ring(256), JobOptions{
		ProgressEvery: 1,
		Progress:      func(Progress) { once.Do(func() { close(started) }) },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j.Cancel()
	_, jerr := j.Await(context.Background())
	if !errors.Is(jerr, context.Canceled) {
		t.Fatalf("canceled running job: %v", jerr)
	}
	if !j.Ran() || j.Status() != StatusDone {
		t.Fatalf("a running job aborts through the run: status=%v ran=%v", j.Status(), j.Ran())
	}
	// The session must keep serving.
	g := graph.Ring(16)
	next, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := await(t, next)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Exact(g, 0, res.Topology) {
		t.Fatal("session poisoned by a canceled run")
	}
}

// TestPoolDeadlines: a job deadline bounds queue wait + run, for both a job
// that expires while queued and one aborted mid-run.
func TestPoolDeadlines(t *testing.T) {
	p := New(Options{Size: 1, QueueDepth: 4})
	defer p.Close()

	// Mid-run: the deadline fires during the run, which aborts.
	j, err := p.Submit(context.Background(), graph.Ring(256), JobOptions{Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run deadline: %v", err)
	}
	if !j.Ran() {
		t.Fatal("mid-run deadline must abort through the run")
	}

	// Queued: the session is busy past the second job's deadline.
	slow, err := p.Submit(context.Background(), graph.Ring(256), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quick, err := p.Submit(context.Background(), graph.Ring(8), JobOptions{Deadline: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quick.Await(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued deadline: %v", err)
	}
	if quick.Ran() {
		t.Fatal("expired-in-queue job must not run")
	}
	slow.Cancel()
	<-slow.Done()
}

// TestPoolDefaultDeadline: Options.DefaultDeadline applies when the job does
// not override it, and a negative job deadline opts out.
func TestPoolDefaultDeadline(t *testing.T) {
	p := New(Options{Size: 1, DefaultDeadline: 40 * time.Millisecond})
	defer p.Close()
	j, err := p.Submit(context.Background(), graph.Ring(256), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("default deadline must apply: %v", err)
	}
	opt, err := p.Submit(context.Background(), graph.Ring(16), JobOptions{Deadline: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, opt); err != nil {
		t.Fatalf("deadline opt-out failed: %v", err)
	}
}

// TestPoolCloseIdempotent covers the shutdown satellite: double Close,
// Close-after-Drain, and post-Close Submit.
func TestPoolCloseIdempotent(t *testing.T) {
	p := New(Options{Size: 2})
	j, err := p.Submit(context.Background(), graph.Ring(16), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal("Drain after Close must be a no-op")
	}
	if _, err := p.Submit(context.Background(), graph.Ring(8), JobOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close submit: %v", err)
	}
	// The pre-close job has a definite outcome either way: served before
	// the cancel landed, or canceled.
	<-j.Done()
	if st := p.Stats(); !st.Closed {
		t.Fatal("stats must report closed")
	}
}

// TestPoolDrainServesQueue: Drain serves every accepted job before releasing
// the sessions, and rejects new intake immediately.
func TestPoolDrainServesQueue(t *testing.T) {
	p := New(Options{Size: 2, QueueDepth: 16})
	jobs := make([]*Job, 8)
	for i := range jobs {
		var err error
		jobs[i], err = p.Submit(context.Background(), graph.Ring(16), JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(context.Background(), graph.Ring(8), JobOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit during/after drain: %v", err)
	}
	for i, j := range jobs {
		res, err := j.Await(context.Background())
		if err != nil {
			t.Fatalf("drained job %d: %v", i, err)
		}
		if res == nil {
			t.Fatalf("drained job %d has no result", i)
		}
	}
	if st := p.Stats(); st.Served != 8 || st.Canceled != 0 {
		t.Fatalf("drain must serve everything: %+v", st)
	}
}

// TestPoolDrainDeadline: a drain whose context dies cancels the remaining
// jobs and still stops the pool completely.
func TestPoolDrainDeadline(t *testing.T) {
	p := New(Options{Size: 1, QueueDepth: 16})
	jobs := make([]*Job, 4)
	for i := range jobs {
		var err error
		jobs[i], err = p.Submit(context.Background(), graph.Ring(256), JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded drain: %v", err)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatal("job still live after bounded drain returned")
		}
	}
}

// TestPoolPanicRecovery: a panicking run fails its job, is counted, and the
// worker replaces the (possibly poisoned) session; the pool keeps serving.
func TestPoolPanicRecovery(t *testing.T) {
	var bomb atomic.Bool
	obs := sim.ObserverFunc(func(int, *sim.Engine) {
		if bomb.Load() {
			panic("test bomb")
		}
	})
	p := New(Options{Size: 1, Run: core.Options{Observers: []sim.Observer{obs}}})
	defer p.Close()

	bomb.Store(true)
	j, err := p.Submit(context.Background(), graph.Ring(16), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, jerr := await(t, j)
	if jerr == nil || !strings.Contains(jerr.Error(), "panicked") {
		t.Fatalf("panicking run must fail its job: %v", jerr)
	}

	bomb.Store(false)
	g := graph.Ring(16)
	next, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := await(t, next)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Exact(g, 0, res.Topology) {
		t.Fatal("replacement session mapped inexactly")
	}
	if st := p.Stats(); st.Panics != 1 || st.Served != 2 {
		t.Fatalf("panic accounting: %+v", st)
	}
}

// TestPoolNilGraph: a nil graph is rejected at submit time.
func TestPoolNilGraph(t *testing.T) {
	p := New(Options{Size: 1})
	defer p.Close()
	if _, err := p.Submit(context.Background(), nil, JobOptions{}); err == nil {
		t.Fatal("nil graph must be rejected")
	}
}

// TestPoolStatsLatencies: served runs accumulate queue-wait and run-time
// means, and the allocation rate collapses once the pool is warm.
func TestPoolStatsLatencies(t *testing.T) {
	p := New(Options{Size: 1, QueueDepth: 16})
	defer p.Close()
	const n = 6
	jobs := make([]*Job, n)
	for i := range jobs {
		var err error
		jobs[i], err = p.Submit(context.Background(), graph.Ring(32), JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		if _, err := await(t, j); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Served != n {
		t.Fatalf("served %d, want %d", st.Served, n)
	}
	if st.AvgRun <= 0 {
		t.Fatalf("run-time mean not recorded: %+v", st)
	}
	// Jobs beyond the first waited behind a busy session.
	if st.AvgQueueWait <= 0 {
		t.Fatalf("queue-wait mean not recorded: %+v", st)
	}
	if st.WarmServes != n-1 {
		t.Fatalf("warm serves %d, want %d", st.WarmServes, n-1)
	}
	if st.WarmHitRate <= 0.5 {
		t.Fatalf("warm hit rate %f", st.WarmHitRate)
	}
}
