package service

import (
	"context"
	"errors"
	"sync"
	"testing"

	"topomap/internal/core"
	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
)

// cachedPool builds a pool with a generous result cache and otherwise
// deterministic single-worker runs.
func cachedPool(size int) *Pool {
	return New(Options{
		Size:       size,
		QueueDepth: 32,
		CacheBytes: 1 << 20,
	})
}

// sameResult is the bit-identity oracle for cached serving: every field of
// the outcome a caller can observe must match.
func sameResult(a, b *core.RunResult) bool {
	return a != nil && b != nil &&
		a.Stats == b.Stats &&
		a.Transactions == b.Transactions &&
		a.Topology.Equal(b.Topology)
}

// TestCacheHitServesIdentical: a repeat submit is served from the cache —
// no second engine run — and the cached result is bit-identical to both the
// fresh run and a run on a cache-less pool (the anchored-fingerprint
// discipline applied to the serving tier).
func TestCacheHitServesIdentical(t *testing.T) {
	bare := New(Options{Size: 1})
	defer bare.Close()
	p := cachedPool(1)
	defer p.Close()

	g := graph.Torus(4, 6)
	bj, err := bare.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := await(t, bj)
	if err != nil {
		t.Fatal(err)
	}

	first, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheState() != CacheMiss {
		t.Fatalf("first submit state %v, want miss", first.CacheState())
	}
	cold, err := await(t, first)
	if err != nil {
		t.Fatal(err)
	}

	second, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheState() != CacheHit {
		t.Fatalf("second submit state %v, want hit", second.CacheState())
	}
	// A hit is complete before Submit returns: no queue, no session.
	select {
	case <-second.Done():
	default:
		t.Fatal("cache hit not done at submit return")
	}
	hit, err := await(t, second)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(want, cold) || !sameResult(cold, hit) {
		t.Fatal("cached result diverges from fresh run")
	}
	if hit != cold {
		t.Fatal("hit must serve the stored result value")
	}

	st := p.Stats()
	if st.Served != 1 {
		t.Fatalf("hit ran the engine: served=%d", st.Served)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheShared != 0 {
		t.Fatalf("cache counters: %+v", st)
	}
	if st.CacheHitRate != 0.5 {
		t.Fatalf("hit rate %f, want 0.5", st.CacheHitRate)
	}
	if st.CacheEntries != 1 || st.CacheBytes <= 0 {
		t.Fatalf("cache footprint: entries=%d bytes=%d", st.CacheEntries, st.CacheBytes)
	}
	if st.AvgHit <= 0 || st.TotalHit <= 0 {
		t.Fatalf("hit latency not recorded: %+v", st)
	}
}

// gate returns an observer that blocks the first engine run after its first
// tick until release is called, plus the (idempotent) release. It lets a
// test pin a flight open while racing submits against it.
func gate() (sim.Observer, func()) {
	ch := make(chan struct{})
	var block, release sync.Once
	obs := sim.ObserverFunc(func(int, *sim.Engine) {
		block.Do(func() { <-ch })
	})
	return obs, func() { release.Do(func() { close(ch) }) }
}

// TestSingleflightCollapse covers the collapse satellite: N concurrent
// submits of one digest trigger exactly one engine run; every requester
// gets the identical result.
func TestSingleflightCollapse(t *testing.T) {
	obs, release := gate()
	defer release()
	p := New(Options{
		Size:       2,
		QueueDepth: 32,
		CacheBytes: 1 << 20,
		Run:        core.Options{Observers: []sim.Observer{obs}},
	})
	defer p.Close()

	g := graph.Ring(48)
	const n = 12
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := p.Submit(context.Background(), g, JobOptions{})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Every submit has resolved its path while the one run is pinned open:
	// exactly one leader, everyone else attached to its flight.
	misses, shared := 0, 0
	for _, j := range jobs {
		switch j.CacheState() {
		case CacheMiss:
			misses++
		case CacheShared:
			shared++
		default:
			t.Fatalf("unexpected state %v mid-flight", j.CacheState())
		}
	}
	if misses != 1 || shared != n-1 {
		t.Fatalf("collapse split: %d misses, %d shared", misses, shared)
	}
	release()

	results := make([]*core.RunResult, n)
	for i, j := range jobs {
		var err error
		results[i], err = await(t, j)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("job %d got a different result value", i)
		}
	}
	st := p.Stats()
	if st.Served != 1 {
		t.Fatalf("collapse must run the engine once: served=%d", st.Served)
	}
	if st.CacheMisses != 1 || st.CacheShared != n-1 {
		t.Fatalf("cache counters after collapse: %+v", st)
	}
	// And the flight's result is now cached for the next submit.
	next, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if next.CacheState() != CacheHit {
		t.Fatalf("post-flight submit state %v, want hit", next.CacheState())
	}
	if _, err := await(t, next); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Served != 1 {
		t.Fatalf("post-flight hit ran the engine: served=%d", st.Served)
	}
}

// TestSingleflightWaiterCancel: one waiter cancelling mid-flight detaches
// only itself — the run completes for everyone else and still populates the
// cache.
func TestSingleflightWaiterCancel(t *testing.T) {
	obs, release := gate()
	defer release()
	p := New(Options{
		Size:       1,
		QueueDepth: 16,
		CacheBytes: 1 << 20,
		Run:        core.Options{Observers: []sim.Observer{obs}},
	})
	defer p.Close()

	g := graph.Ring(48)
	leader, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waiters := make([]*Job, 3)
	for i := range waiters {
		waiters[i], err = p.Submit(context.Background(), g, JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if waiters[i].CacheState() != CacheShared {
			t.Fatalf("waiter %d state %v", i, waiters[i].CacheState())
		}
	}

	waiters[1].Cancel()
	if _, err := waiters[1].Await(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: %v", err)
	}
	release()

	want, err := await(t, leader)
	if err != nil {
		t.Fatalf("leader poisoned by waiter cancel: %v", err)
	}
	for _, i := range []int{0, 2} {
		res, err := await(t, waiters[i])
		if err != nil {
			t.Fatalf("waiter %d poisoned by sibling cancel: %v", i, err)
		}
		if res != want {
			t.Fatalf("waiter %d result diverges", i)
		}
	}
	st := p.Stats()
	if st.Served != 1 || st.Canceled != 1 {
		t.Fatalf("stats after waiter cancel: %+v", st)
	}
	if st.CacheEntries != 1 {
		t.Fatal("flight result must still populate the cache")
	}
}

// TestCacheRootIsolation: on an asymmetric graph, different roots anchor
// different canonical digests — no sharing; on a vertex-transitive graph
// every root is the same anchored machine, so sharing is correct and wanted.
func TestCacheRootIsolation(t *testing.T) {
	p := cachedPool(1)
	defer p.Close()

	line := graph.Line(5)
	r0, r2 := 0, 2
	j0, err := p.Submit(context.Background(), line, JobOptions{Root: &r0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j0); err != nil {
		t.Fatal(err)
	}
	j2, err := p.Submit(context.Background(), line, JobOptions{Root: &r2})
	if err != nil {
		t.Fatal(err)
	}
	if j2.CacheState() != CacheMiss {
		t.Fatalf("distinct root reused an entry: %v", j2.CacheState())
	}
	res2, err := await(t, j2)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Exact(line, r2, res2.Topology) {
		t.Fatal("root-2 job served a wrong reconstruction")
	}
	if st := p.Stats(); st.Served != 2 || st.CacheEntries != 2 {
		t.Fatalf("asymmetric roots must not share: %+v", st)
	}

	// Vertex-transitive: ring roots are isomorphic anchors, so root 3 hits
	// the entry root 0 wrote. The reconstruction is exact from either label.
	ring := graph.Ring(8)
	a, err := p.Submit(context.Background(), ring, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, a); err != nil {
		t.Fatal(err)
	}
	r3 := 3
	b, err := p.Submit(context.Background(), ring, JobOptions{Root: &r3})
	if err != nil {
		t.Fatal(err)
	}
	if b.CacheState() != CacheHit {
		t.Fatalf("isomorphic anchors must share: %v", b.CacheState())
	}
	resb, err := await(t, b)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Exact(ring, 0, resb.Topology) {
		t.Fatal("shared ring entry is not an exact reconstruction")
	}
}

// TestOptionsFingerprintIsolation: every run option that can shift a bit of
// the observable outcome must shift the fingerprint, and the ignored
// Workers field must not.
func TestOptionsFingerprintIsolation(t *testing.T) {
	base := core.Options{MaxTicks: 1000}
	variants := map[string]core.Options{
		"base":     base,
		"maxticks": {MaxTicks: 2000},
		"validate": {MaxTicks: 1000, Validate: true},
		"config":   {MaxTicks: 1000, Config: &gtd.Config{SnakeDelay: 3}},
		"faults": {MaxTicks: 1000,
			Faults: &sim.FaultPlan{Seed: 7, DropRate: 0.01}},
		"faults-seed": {MaxTicks: 1000,
			Faults: &sim.FaultPlan{Seed: 8, DropRate: 0.01}},
		"crash": {MaxTicks: 1000,
			Faults: &sim.FaultPlan{Seed: 7, DropRate: 0.01,
				Crashes: []sim.Crash{{Node: 3, Tick: 10}}}},
	}
	fps := make(map[uint64]string, len(variants))
	for name, o := range variants {
		fp := optionsFingerprint(o)
		if prev, dup := fps[fp]; dup {
			t.Fatalf("options %q and %q share a fingerprint", prev, name)
		}
		fps[fp] = name
	}
	if optionsFingerprint(base) != optionsFingerprint(base) {
		t.Fatal("fingerprint must be deterministic")
	}
	//lint:ignore SA1019 this pins the deprecated field's one remaining contract
	one, four := core.Options{Workers: 1, MaxTicks: 1000}, core.Options{Workers: 4, MaxTicks: 1000}
	if optionsFingerprint(one) != optionsFingerprint(four) || optionsFingerprint(one) != optionsFingerprint(base) {
		t.Fatal("the ignored Workers field must not split the cache")
	}
}

// TestNoCacheBypass: JobOptions.NoCache skips lookup, singleflight, and
// population — the submit behaves exactly as on a cache-less pool.
func TestNoCacheBypass(t *testing.T) {
	p := cachedPool(1)
	defer p.Close()
	g := graph.Ring(16)

	for i := 0; i < 2; i++ {
		j, err := p.Submit(context.Background(), g, JobOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if j.CacheState() != CacheNone {
			t.Fatalf("bypass submit %d state %v", i, j.CacheState())
		}
		if _, err := await(t, j); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Served != 2 || st.CacheEntries != 0 {
		t.Fatalf("bypass must not consult or populate: %+v", st)
	}

	// A cached submit populates; a later bypass still runs fresh.
	j, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	j, err = p.Submit(context.Background(), g, JobOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Served != 4 || st.CacheHits != 0 {
		t.Fatalf("bypass after populate must still run: %+v", st)
	}
}

// TestCacheEviction: a cache sized for roughly one entry displaces old
// results under distinct-graph traffic and reports it, while the byte bound
// holds.
func TestCacheEviction(t *testing.T) {
	p := New(Options{
		Size:        1,
		QueueDepth:  16,
		CacheBytes:  8192,
		CacheShards: 1,
	})
	defer p.Close()
	graphs := []*graph.Graph{
		graph.Ring(24), graph.Ring(32), graph.Ring(40), graph.Ring(48),
	}
	for _, g := range graphs {
		j, err := p.Submit(context.Background(), g, JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := await(t, j); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.CacheEvictions == 0 {
		t.Fatalf("no evictions under displacement traffic: %+v", st)
	}
	if st.CacheBytes > 8192 {
		t.Fatalf("cache over bound: %d", st.CacheBytes)
	}
	// The most recent graph survived; resubmitting it is a hit.
	j, err := p.Submit(context.Background(), graphs[len(graphs)-1], JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j.CacheState() != CacheHit {
		t.Fatalf("MRU entry evicted: %v", j.CacheState())
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
}

// TestCachedEntryContents: the entry a flight populates carries both wire
// encodings of the reconstruction and the one-time verification verdict,
// and every path that can observe it — miss leader, hit, Lookup — shares
// the same entry value.
func TestCachedEntryContents(t *testing.T) {
	p := cachedPool(1)
	defer p.Close()
	g := graph.Torus(4, 6)

	if ent := p.Lookup(g, 0); ent != nil {
		t.Fatal("Lookup hit on an empty cache")
	}
	miss, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := await(t, miss)
	if err != nil {
		t.Fatal(err)
	}
	ent := miss.Cached()
	if ent == nil {
		t.Fatal("miss leader must carry the entry its run populated")
	}
	if ent.Res != res {
		t.Fatal("entry result is not the run's result")
	}
	if !ent.Exact {
		t.Fatal("fault-free torus reconstruction must verify exact")
	}
	if ent.Edges != res.Topology.NumEdges() {
		t.Fatalf("entry edges %d, topology has %d", ent.Edges, res.Topology.NumEdges())
	}
	// Both pre-encoded forms decode back to the reconstruction.
	fromText, err := graph.UnmarshalString(ent.Text)
	if err != nil {
		t.Fatalf("entry text does not parse: %v", err)
	}
	fromBin, err := graph.UnmarshalBinary(ent.Bin)
	if err != nil {
		t.Fatalf("entry binary does not parse: %v", err)
	}
	if !fromText.Equal(res.Topology) || !fromBin.Equal(res.Topology) {
		t.Fatal("pre-encoded forms diverge from the topology")
	}

	hit, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, hit); err != nil {
		t.Fatal(err)
	}
	if hit.Cached() != ent {
		t.Fatal("hit must share the stored entry, not a copy")
	}
	if got := p.Lookup(g, 0); got != ent {
		t.Fatal("Lookup must return the same shared entry")
	}
}

// TestLookupFastPath pins the zero-copy fast path's contract: hits are
// counted in the pool's statistics exactly like Submit-path hits, misses
// and non-addressable requests return nil without touching counters, and a
// warm hit performs no heap allocation at all.
func TestLookupFastPath(t *testing.T) {
	p := cachedPool(1)
	defer p.Close()
	g := graph.Torus(4, 6)
	j, err := p.Submit(context.Background(), g, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := await(t, j); err != nil {
		t.Fatal(err)
	}
	base := p.Stats()

	if ent := p.Lookup(g, 99999); ent != nil {
		t.Fatal("non-addressable root must miss")
	}
	if ent := p.Lookup(graph.Ring(8), 0); ent != nil {
		t.Fatal("unknown graph must miss")
	}
	if ent := p.Lookup(g, 0); ent == nil {
		t.Fatal("warm entry must hit")
	}
	st := p.Stats()
	if st.CacheHits != base.CacheHits+1 {
		t.Fatalf("hits %d, want %d", st.CacheHits, base.CacheHits+1)
	}
	if st.TotalHit <= base.TotalHit {
		t.Fatal("hit latency not accumulated")
	}
	if st.Served != base.Served || st.Submitted != base.Submitted {
		t.Fatal("Lookup must not count runs or submissions")
	}

	if !raceEnabled {
		allocs := testing.AllocsPerRun(100, func() {
			if p.Lookup(g, 0) == nil {
				t.Fatal("lost the entry mid-measurement")
			}
		})
		if allocs > 0 {
			t.Fatalf("fast-path hit allocates %.1f times, want 0", allocs)
		}
	}

	// Lookup on a cache-less pool is a cheap constant nil.
	bare := New(Options{Size: 1})
	defer bare.Close()
	if bare.Lookup(g, 0) != nil {
		t.Fatal("cache-less pool must always miss")
	}
}
