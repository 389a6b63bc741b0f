// Package service is the long-lived mapping service layer: a Pool owns a
// fixed set of warm protocol sessions (internal/core) and feeds them from a
// bounded job queue. It is the concurrency engine behind topomap.MapBatch
// and topomap.NewService, and the serving core of cmd/topomapd.
//
// The layering contract: the pool owns the sessions for its whole lifetime —
// exactly one goroutine per session, each session serving one job at a time,
// so every run is identical to a sequential core.Session run (the engine's
// determinism guarantee extends through the pool: pool size and queue order
// change wall-clock time only, never a result bit). Jobs are served in
// submission order (FIFO); backpressure is explicit — a full queue either
// rejects the submit with ErrQueueFull or blocks it, per Options.Block.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"topomap/internal/cache"
	"topomap/internal/core"
	"topomap/internal/graph"
)

// Errors returned by Submit.
var (
	// ErrClosed reports a Submit after Close or Drain began.
	ErrClosed = errors.New("service: pool closed")
	// ErrQueueFull reports a rejected Submit: the job queue is at capacity
	// and the pool's backpressure policy is reject (Options.Block false).
	ErrQueueFull = errors.New("service: job queue full")
)

// Options configures a Pool.
type Options struct {
	// Size is the number of warm sessions — the pool's run-level
	// concurrency. Each session is owned by one goroutine for the pool's
	// lifetime. 0 uses runtime.GOMAXPROCS(0).
	Size int
	// QueueDepth bounds the number of submitted-but-not-yet-running jobs.
	// A Submit beyond it is rejected (ErrQueueFull) or blocks, per Block.
	// 0 picks 4×Size; negative means no waiting room (a Submit succeeds
	// only if a session is ready to take the job immediately).
	QueueDepth int
	// Block selects the backpressure policy for a full queue: false (the
	// default) rejects the Submit with ErrQueueFull, true blocks until
	// space frees, the submit context dies, or the pool closes.
	Block bool
	// DefaultDeadline bounds each job (queue wait + run) unless the job
	// overrides it; 0 means no default.
	DefaultDeadline time.Duration
	// ProgressEvery is the default tick granularity of per-job progress
	// events for jobs that set a Progress sink without an interval; 0
	// picks 64.
	ProgressEvery int
	// CacheBytes bounds the content-addressed result cache: repeat
	// submissions of an isomorphic (graph, root) pair under the same run
	// options are served from memory without an engine run, and concurrent
	// identical misses collapse onto one run (singleflight). 0 disables
	// caching entirely — every submit queues its own run, exactly the
	// pre-cache behaviour.
	CacheBytes int64
	// CacheShards is the cache's shard count (lock granularity); 0 picks
	// 16. Rounded up to a power of two.
	CacheShards int
	// Run configures every run of the pool (root, tick budget, engine
	// workers, scheduling, protocol config); per-job overrides are limited
	// to JobOptions.Root.
	Run core.Options
}

// Stats is a point-in-time snapshot of a pool's counters.
type Stats struct {
	// Size and QueueCap echo the pool's configuration; QueueLen and
	// Running are the instantaneous queue depth and in-flight run count.
	Size     int
	QueueCap int
	QueueLen int
	Running  int

	// Submitted counts accepted jobs; Rejected counts ErrQueueFull
	// submits. Served counts jobs whose run actually executed (Failed of
	// them with an error); Canceled counts jobs finished without running
	// (canceled or expired in the queue). Panics counts runs that
	// panicked; their session is discarded and rebuilt.
	Submitted uint64
	Rejected  uint64
	Served    uint64
	Failed    uint64
	Canceled  uint64
	Panics    uint64

	// WarmServes counts served runs on a session that had already run at
	// least once (engine, automata, and decoder recycled); WarmHitRate is
	// WarmServes/Served. In steady state every serve beyond the first
	// Size is warm.
	WarmServes  uint64
	WarmHitRate float64

	// AllocsPerRun is the process-wide heap-allocation count since the
	// pool started, divided by Served — the same measure the E13/E16
	// experiments report. It overcounts under unrelated allocation in the
	// same process; within the serving daemon it tracks the warm-session
	// claim.
	AllocsPerRun uint64

	// Memory telemetry. EngineBytes/EngineBytesPerNode/ArenaBytes are the
	// buffer footprint of the session that most recently finished a run
	// (one session's view, not a pool-wide sum — pool sessions are
	// interchangeable, so one is representative of the steady state).
	// HeapInUse is the process-wide live-object heap, read at snapshot
	// time via runtime/metrics.
	EngineBytes        int64
	EngineBytesPerNode float64
	ArenaBytes         int64
	HeapInUse          uint64

	// Result-cache counters. CacheHits counts submits served straight from
	// the content-addressed cache (no engine run, no queueing); CacheMisses
	// counts submits that started a fresh engine run (singleflight
	// leaders); CacheShared counts submits that collapsed onto an identical
	// run already in flight. CacheHits+CacheMisses+CacheShared is the
	// number of cache-eligible submits. CacheEvictions/CacheBytes/
	// CacheEntries are the LRU's displacement count and accounted
	// footprint. All zero when the cache is disabled.
	CacheHits      uint64
	CacheMisses    uint64
	CacheShared    uint64
	CacheEvictions uint64
	CacheBytes     int64
	CacheEntries   int
	// CacheHitRate is CacheHits over cache-eligible submits.
	CacheHitRate float64

	// Remap counters (the delta-patching tier; all zero when the cache is
	// disabled). RemapIncremental counts remaps served by the structural
	// patch — no engine run; RemapFull counts remaps whose dirty set forced
	// the full-protocol fallback (those runs also appear in Served/
	// CacheMisses, because the fallback rides the ordinary submit path);
	// RemapShared counts remaps that collapsed onto an identical patch in
	// flight; RemapBaseMisses counts remaps rejected because their base
	// digest was not cached.
	RemapIncremental uint64
	RemapFull        uint64
	RemapShared      uint64
	RemapBaseMisses  uint64

	// AvgQueueWait and AvgRun are means over served runs (the cold path);
	// AvgHit is the mean submit-to-completion latency of cache hits (key
	// derivation + lookup — no engine run). The Total* sums are the same
	// accumulators un-divided, for /metrics-style exposition.
	AvgQueueWait   time.Duration
	AvgRun         time.Duration
	AvgHit         time.Duration
	TotalQueueWait time.Duration
	TotalRun       time.Duration
	TotalHit       time.Duration

	// Closed reports that Close or Drain has begun: submits are rejected.
	Closed bool
}

// Pool is a fixed-size pool of warm mapping sessions fed by a bounded FIFO
// job queue. All methods are safe for concurrent use.
type Pool struct {
	opts  Options
	queue chan *Job

	// closedCh unblocks blocked submitters when shutdown begins; mu guards
	// closed, the submitter count, and the live-job registry. queueClosed
	// ensures the queue channel is closed exactly once, after every
	// submitter in flight has either enqueued or bailed.
	mu          sync.Mutex
	closed      bool
	closedCh    chan struct{}
	submitters  sync.WaitGroup
	queueClosed sync.Once
	jobs        map[uint64]*Job
	nextID      uint64

	workers sync.WaitGroup

	// cache is the content-addressed result store (nil when disabled);
	// flights is the singleflight registry collapsing concurrent identical
	// misses; remapFlights does the same for concurrent identical deltas
	// (Remap); optFP is the pool's precomputed options fingerprint — run
	// options are fixed for the pool's lifetime, so it never changes.
	cache        *cache.Cache[*Cached]
	flights      cache.Group[flight]
	remapFlights cache.Group[remapFlight]
	optFP        uint64

	// lastMem is the memory report of the most recent finished run's
	// session, refreshed by workers after every serve; memMu guards it.
	memMu   sync.Mutex
	lastMem core.MemInfo

	baseMallocs uint64
	stats       struct {
		submitted, rejected, served, failed, canceled, panics, warm counter
		hits, misses, shared                                        counter
		remapInc, remapFull, remapShared, remapBaseMiss             counter
		running, queueWaitNs, runNs, hitNs                          gauge
	}
}

// New starts a pool: Size session-owning goroutines, all warm-starting
// lazily on their first job. The caller must Close (or Drain) the pool when
// done.
func New(opts Options) *Pool {
	if opts.Size <= 0 {
		opts.Size = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 4 * opts.Size
	}
	if opts.QueueDepth < 0 {
		opts.QueueDepth = 0
	}
	if opts.ProgressEvery <= 0 {
		opts.ProgressEvery = 64
	}
	p := &Pool{
		opts:        opts,
		queue:       make(chan *Job, opts.QueueDepth),
		closedCh:    make(chan struct{}),
		jobs:        make(map[uint64]*Job),
		baseMallocs: mallocs(),
	}
	if opts.CacheBytes > 0 {
		p.cache = cache.New[*Cached](opts.CacheBytes, opts.CacheShards)
		p.optFP = optionsFingerprint(opts.Run)
	}
	p.workers.Add(opts.Size)
	for i := 0; i < opts.Size; i++ {
		go p.worker()
	}
	return p
}

// Submit enqueues a mapping job and returns its handle. The job runs with
// the pool's Run options (plus any JobOptions overrides) on the next free
// session, in FIFO order. ctx governs the submit itself (a blocked submit
// aborts when it dies) and the job's lifetime: cancelling it cancels the
// job, queued or running. A full queue rejects (ErrQueueFull) or blocks,
// per the pool's backpressure policy; a closed pool rejects with ErrClosed.
//
// With a result cache configured (Options.CacheBytes), Submit first
// content-addresses the request — the canonical digest of the graph
// anchored at the effective root, plus the pool's options fingerprint. A
// hit completes the job immediately with the cached result (no engine run,
// no queueing); a request identical to a run already in flight attaches to
// that run instead of queueing a duplicate (singleflight); only a genuine
// miss queues an engine run, whose successful result populates the cache on
// the way out. Job.CacheState reports which path served the job.
func (p *Pool) Submit(ctx context.Context, g *graph.Graph, opts JobOptions) (*Job, error) {
	if g == nil {
		return nil, errors.New("service: nil graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.submitters.Add(1)
	p.mu.Unlock()
	defer p.submitters.Done()

	if p.cache != nil && !opts.NoCache {
		root := p.opts.Run.Root
		if opts.Root != nil {
			root = *opts.Root
		}
		if key, ok := p.cacheKey(g, root); ok {
			return p.submitCached(ctx, g, opts, key, root)
		}
	}

	j := p.newJob(ctx, g, opts)
	if err := p.enqueue(ctx, j); err != nil {
		p.release(j)
		return nil, err
	}
	p.stats.submitted.add(1)
	return j, nil
}

// submitCached is the cache-eligible half of Submit: serve a hit from
// memory, attach a shared request to the identical run in flight, or lead a
// new flight whose single internal job runs the engine for every waiter.
func (p *Pool) submitCached(ctx context.Context, g *graph.Graph, opts JobOptions, key cache.Key, root int) (*Job, error) {
	start := time.Now()
	if ent, ok := p.cache.Get(key); ok {
		j := p.newJob(ctx, g, opts)
		j.digest, j.hasDigest = graph.Digest(key.Digest), true
		j.cacheState = CacheHit
		p.stats.hits.add(1)
		p.stats.submitted.add(1)
		p.stats.hitNs.add(int64(time.Since(start)))
		j.finishShared(ent, ent.Res, nil)
		return j, nil
	}
	fl, leader := p.flights.Join(key, func() *flight { return &flight{key: key} })
	if !leader {
		j := p.newJob(ctx, g, opts)
		j.digest, j.hasDigest = graph.Digest(key.Digest), true
		j.cacheState = CacheShared
		p.stats.shared.add(1)
		p.stats.submitted.add(1)
		if !fl.attach(j) {
			// The flight completed between Join and attach; its recorded
			// outcome is immutable now, so serve it directly.
			j.finishShared(fl.ent, fl.res, fl.err)
		}
		return j, nil
	}

	// Leader: one internal job runs the engine under a context detached
	// from any individual requester, so a waiter's cancellation can never
	// poison the run for the others. The requester becomes the flight's
	// first waiter like everyone else.
	j := p.newJob(ctx, g, opts)
	j.digest, j.hasDigest = graph.Digest(key.Digest), true
	j.cacheState = CacheMiss
	fl.attach(j)
	ij := p.newFlightJob(fl, g, root)
	if err := p.enqueue(ctx, ij); err != nil {
		// The flight never got its run: fail it for every waiter that
		// managed to attach, then surface the submit error to the leader's
		// caller like any rejected Submit.
		p.flights.Forget(key)
		p.release(ij)
		for _, w := range fl.completeAll(nil, nil, err) {
			w.finishShared(nil, nil, err)
		}
		return nil, err
	}
	p.stats.misses.add(1)
	p.stats.submitted.add(1)
	return j, nil
}

// newFlightJob builds the internal job that runs the engine for a flight:
// detached from every requester's context (bounded only by the pool's
// DefaultDeadline), fanning progress out to the flight's waiters, and
// broadcasting its outcome — after populating the cache — via finishFlight.
func (p *Pool) newFlightJob(fl *flight, g *graph.Graph, root int) *Job {
	return p.newJob(context.Background(), g, JobOptions{
		Root:          &root,
		Progress:      fl.fanProgress,
		ProgressEvery: p.opts.ProgressEvery,
		OnDone:        func(ij *Job) { p.finishFlight(fl, ij) },
	})
}

// finishFlight is the internal job's completion hook: build the cache entry
// (successful runs only — both wire encodings plus the one-time verification
// against the flight's input graph), populate the cache, retire the flight
// key so later submits start fresh (or hit the entry just written), then
// broadcast to every waiter. Runs on the goroutine that finished the
// internal job; the encode cost rides on the run it amortises, never on a
// hit.
func (p *Pool) finishFlight(fl *flight, ij *Job) {
	res, err := ij.Outcome()
	var ent *Cached
	if err == nil && res != nil {
		ent = newCached(ij.g, ij.root, res)
		p.cache.Put(fl.key, ent, ent.cost())
	}
	p.flights.Forget(fl.key)
	for _, w := range fl.completeAll(ent, res, err) {
		w.finishShared(ent, res, err)
	}
}

// Lookup is the zero-copy serving fast path: content-address the request
// (pooled canonical digest — no allocation) and return the cache entry with
// its pre-encoded wire bytes, or nil on a miss. No job is created, nothing
// is queued, and no context or channel machinery runs — a hit costs the
// digest plus one sharded-LRU read, and is counted in the pool's hit
// statistics exactly like a Submit-path hit. On nil the caller falls back to
// Submit, which re-derives the key (the duplicated digest is cold-path cost,
// dwarfed by the engine run it precedes).
func (p *Pool) Lookup(g *graph.Graph, root int) *Cached {
	ent, _, _ := p.LookupDigest(g, root)
	return ent
}

// LookupDigest is Lookup surfacing the content address it computes anyway:
// the cache-key digest of (g, root), the base a later Remap delta chains
// from. ok reports whether a key was derived at all (false when the cache
// is off or g is nil) — on a miss ok is still true and ent is nil, so a
// server can hand the digest to clients alongside the Submit it falls back
// to. Identical cost to Lookup on the hit path: the digest is returned by
// value, nothing extra is computed or allocated.
func (p *Pool) LookupDigest(g *graph.Graph, root int) (ent *Cached, dig graph.Digest, ok bool) {
	if p.cache == nil || g == nil {
		return nil, graph.Digest{}, false
	}
	key, ok := p.cacheKey(g, root)
	if !ok {
		return nil, graph.Digest{}, false
	}
	dig = graph.Digest(key.Digest)
	start := time.Now()
	ent, hit := p.cache.Get(key)
	if !hit {
		return nil, dig, true
	}
	p.stats.hits.add(1)
	p.stats.hitNs.add(int64(time.Since(start)))
	return ent, dig, true
}

// enqueue pushes a job into the queue under the pool's backpressure policy.
// ctx bounds a blocked enqueue; the caller owns releasing the job on error.
func (p *Pool) enqueue(ctx context.Context, j *Job) error {
	if p.opts.Block {
		select {
		case p.queue <- j:
		case <-p.closedCh:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	} else {
		select {
		case p.queue <- j:
		case <-p.closedCh:
			return ErrClosed
		default:
			p.stats.rejected.add(1)
			return ErrQueueFull
		}
	}
	return nil
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	s := Stats{
		Size:       p.opts.Size,
		QueueCap:   p.opts.QueueDepth,
		QueueLen:   len(p.queue),
		Running:    int(p.stats.running.get()),
		Submitted:  p.stats.submitted.get(),
		Rejected:   p.stats.rejected.get(),
		Served:     p.stats.served.get(),
		Failed:     p.stats.failed.get(),
		Canceled:   p.stats.canceled.get(),
		Panics:     p.stats.panics.get(),
		WarmServes: p.stats.warm.get(),
		HeapInUse:  heapInUse(),
		Closed:     closed,
	}
	p.memMu.Lock()
	s.EngineBytes = p.lastMem.Engine.TotalBytes
	s.EngineBytesPerNode = p.lastMem.BytesPerNode
	s.ArenaBytes = p.lastMem.ArenaBytes
	p.memMu.Unlock()
	s.TotalQueueWait = time.Duration(p.stats.queueWaitNs.get())
	s.TotalRun = time.Duration(p.stats.runNs.get())
	s.TotalHit = time.Duration(p.stats.hitNs.get())
	if s.Served > 0 {
		s.WarmHitRate = float64(s.WarmServes) / float64(s.Served)
		s.AllocsPerRun = (mallocs() - p.baseMallocs) / s.Served
		s.AvgQueueWait = s.TotalQueueWait / time.Duration(s.Served)
		s.AvgRun = s.TotalRun / time.Duration(s.Served)
	}
	s.CacheHits = p.stats.hits.get()
	s.CacheMisses = p.stats.misses.get()
	s.CacheShared = p.stats.shared.get()
	s.RemapIncremental = p.stats.remapInc.get()
	s.RemapFull = p.stats.remapFull.get()
	s.RemapShared = p.stats.remapShared.get()
	s.RemapBaseMisses = p.stats.remapBaseMiss.get()
	if p.cache != nil {
		cs := p.cache.Stats()
		s.CacheEvictions = cs.Evictions
		s.CacheBytes = cs.Bytes
		s.CacheEntries = cs.Entries
	}
	if eligible := s.CacheHits + s.CacheMisses + s.CacheShared; eligible > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(eligible)
	}
	if s.CacheHits > 0 {
		s.AvgHit = s.TotalHit / time.Duration(s.CacheHits)
	}
	return s
}

// beginShutdown stops intake: submits fail with ErrClosed, blocked submits
// abort, and — once every in-flight submit has resolved — the queue channel
// is closed so workers drain it and exit. Idempotent.
func (p *Pool) beginShutdown() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.closedCh)
	}
	p.mu.Unlock()
	p.submitters.Wait()
	p.queueClosed.Do(func() { close(p.queue) })
}

// cancelLive cancels every queued or running job.
func (p *Pool) cancelLive() {
	p.mu.Lock()
	live := make([]*Job, 0, len(p.jobs))
	for _, j := range p.jobs {
		live = append(live, j)
	}
	p.mu.Unlock()
	for _, j := range live {
		j.Cancel()
	}
}

// Drain shuts the pool down gracefully: intake stops immediately (submits
// fail with ErrClosed), every already-accepted job is served to completion,
// and the sessions are released. ctx bounds the wait: if it dies first the
// remaining jobs are canceled (queued ones finish with their context error,
// running ones abort between ticks) and Drain returns ctx's error after the
// pool has fully stopped. Safe to call concurrently with Close and again
// after either.
func (p *Pool) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.beginShutdown()
	done := make(chan struct{})
	go func() {
		p.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.cancelLive()
		<-done
		return ctx.Err()
	}
}

// Close shuts the pool down promptly: intake stops, every queued or running
// job is canceled (running ones abort between ticks and finish with their
// context error), and Close returns once all sessions are released. It is
// idempotent and safe to call concurrently; a closed pool only rejects
// submits — job handles remain readable.
func (p *Pool) Close() error {
	p.beginShutdown()
	p.cancelLive()
	p.workers.Wait()
	return nil
}

// worker owns one core.Session for the pool's lifetime and serves queued
// jobs on it until the queue closes. A panicking run poisons the engine
// state, so the session is discarded and a fresh one warmed in its place.
func (p *Pool) worker() {
	defer p.workers.Done()
	s := core.NewSession(p.opts.Run)
	for j := range p.queue {
		if !p.serve(s, j) {
			s = core.NewSession(p.opts.Run)
		}
	}
}

// serve runs one job on the worker's session. It reports false when the run
// panicked (the job is failed and the caller must replace the session).
func (p *Pool) serve(s *core.Session, j *Job) (ok bool) {
	if !j.toRunning() {
		return true // finished while queued (canceled/expired); nothing to run
	}
	started := time.Now()
	wait := started.Sub(j.submitted)
	if err := j.ctx.Err(); err != nil {
		// The job's context died while it sat in the queue: record the
		// plain context error without touching the session.
		p.stats.canceled.add(1)
		j.complete(nil, err, StatusCanceled, false)
		return true
	}
	// Snapshot warmth before the run: the session increments its run
	// counter on the way in, so reading it from the recover path would
	// count a panicking cold run as a warm serve.
	warm := s.Runs() > 0
	defer func() {
		if r := recover(); r != nil {
			p.stats.panics.add(1)
			p.stats.running.add(-1)
			p.finishServe(j, started, wait, nil,
				fmt.Errorf("service: run panicked: %v", r), warm)
		}
	}()
	p.stats.running.add(1)
	if j.progress != nil {
		sink := j.progress
		every := j.progressEvery
		s.SetProgress(every, func(sp simProgress) {
			sink(Progress{
				Tick:     sp.Tick,
				Frontier: sp.Frontier,
				Messages: sp.Messages,
				Steps:    sp.Steps,
				Elapsed:  time.Since(started),
			})
		})
	}
	res, err := s.RunRootedContext(j.ctx, j.g, j.root)
	if j.progress != nil {
		s.SetProgress(0, nil)
	}
	p.stats.running.add(-1)
	p.noteMem(s.Mem())
	p.finishServe(j, started, wait, res, err, warm)
	return true
}

// noteMem publishes a just-served session's memory report for Stats.
func (p *Pool) noteMem(m core.MemInfo) {
	p.memMu.Lock()
	p.lastMem = m
	p.memMu.Unlock()
}

// finishServe records the accounting of a run that executed and completes
// the job.
func (p *Pool) finishServe(j *Job, started time.Time, wait time.Duration, res *core.RunResult, err error, warm bool) {
	p.stats.served.add(1)
	if warm {
		p.stats.warm.add(1)
	}
	if err != nil {
		p.stats.failed.add(1)
	}
	p.stats.queueWaitNs.add(int64(wait))
	p.stats.runNs.add(int64(time.Since(started)))
	j.complete(res, err, StatusDone, true)
}

// register adds a job to the live registry (Close cancels what it finds
// there); release removes it and releases its context resources — the
// un-submit path for rejected jobs, and the completion path otherwise.
func (p *Pool) register(j *Job) {
	p.mu.Lock()
	p.jobs[j.id] = j
	p.mu.Unlock()
}

func (p *Pool) release(j *Job) {
	p.mu.Lock()
	delete(p.jobs, j.id)
	p.mu.Unlock()
	j.cancelCtx()
}

// mallocs reads the process-wide cumulative heap-allocation count via
// runtime/metrics — unlike runtime.ReadMemStats it does not stop the world,
// so a monitoring loop polling Pool.Stats never stalls in-flight runs.
func mallocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// heapInUse reads the process-wide live-heap size (bytes occupied by
// reachable plus not-yet-swept objects), same non-stopping mechanism as
// mallocs.
func heapInUse() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}
