package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"topomap"
	"topomap/internal/graph"
)

// E19CachedServing measures the content-addressed serving tier
// (ServiceOptions.CacheBytes — the cache behind topomapd's -cache-bytes):
// repeat and concurrent-identical mapping requests served without an engine
// run. Three claims:
//
//  1. Headline: serving a cached result is orders of magnitude faster than
//     the cold map — the hit path's p50 sits ≥100× under the cold-map p50
//     on the headline ring (256 nodes at Full scale), because a hit costs
//     one canonical digest + one LRU lookup instead of a protocol run.
//  2. Cached results are bit-identical to fresh runs: every served result —
//     hit, miss, or singleflight-shared — equals an independent uncached
//     map of the same graph (the anchored-fingerprint discipline applied to
//     the serving tier).
//  3. Under Zipf-ish mixed traffic over the irregular families, the cache
//     absorbs the repeat mass (hit%), and concurrent identical misses
//     collapse onto one engine run (collapse = requesters per engine run
//     among non-hit requests, > 1 whenever clients race on a cold key).
//
// Engine runs happen only on cache-missing (or cache-bypassing) requests:
// runs == requests − hits − shared on every row, which experiments_test
// asserts together with the identity and headline-speedup invariants.
func E19CachedServing(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E19",
		Title: "Content-addressed cached serving under mixed traffic",
		Claim: "perf: cache hits serve ≥100× under the cold-map p50 with bit-identical results; concurrent identical misses collapse onto one engine run",
		Columns: []string{"mode", "pool", "clients", "requests", "runs", "hit%", "shared",
			"collapse", "hit p50 µs", "hit p99 µs", "cold p50 ms", "cold p99 ms", "speedup", "identical"},
	}

	headlineN, catalogN, perClient := 128, 48, 24
	if s == Full {
		headlineN, catalogN, perClient = 256, 96, 48
	}

	// Headline: one graph, one client — the pure hit-vs-cold latency gap.
	if err := e19Headline(t, headlineN); err != nil {
		return nil, err
	}

	// Zipf-ish mixed traffic over the irregular families: a popularity-
	// skewed request stream (rank-1.4 Zipf over the catalog) from
	// concurrent clients against a cold cache, swept over pool sizes.
	catalog, baselines, err := e19Catalog(catalogN)
	if err != nil {
		return nil, err
	}
	for _, pool := range []int{1, 2, 4} {
		for _, clients := range []int{pool, 2 * pool} {
			if err := e19ZipfRound(t, catalog, baselines, pool, clients, perClient); err != nil {
				return nil, err
			}
		}
	}
	t.Notes = append(t.Notes,
		"hit/cold latencies are client-observed Submit+Await times, classified by Job.CacheState; shared requests (collapsed onto an in-flight run) are excluded from both percentile pools",
		"collapse = (misses+shared)/misses — mean requesters per engine run among non-hit requests; 1.00 means no concurrent identical misses ever raced",
		"runs is the pool's engine-run count for the round: requests − hits − shared on every row — hits and shared requests never run the engine (the headline row's second run is its uncached identity oracle)",
		"identical: every result equals an independent uncached map of the same graph",
		"the headline row's speedup (cold p50 / hit p50) is the PR's acceptance bound: ≥ 100 on the headline ring",
		hostNote())
	return t, nil
}

// e19Headline measures the pure hit-vs-cold gap on one ring: one cold map
// through the cache, one independent uncached map as the identity oracle,
// then a burst of hits.
func e19Headline(t *Table, n int) error {
	g := topomap.Ring(n)
	svc := topomap.NewService(topomap.ServiceOptions{
		Options:    topomap.Options{Workers: 1},
		Sessions:   1,
		QueueDepth: 4,
		CacheBytes: 64 << 20,
	})
	defer svc.Close()

	req := func(opts topomap.JobOptions) (*topomap.Result, topomap.CacheState, time.Duration, error) {
		start := time.Now()
		j, err := svc.Submit(context.Background(), g, opts)
		if err != nil {
			return nil, topomap.CacheNone, 0, err
		}
		res, err := j.Await(context.Background())
		return res, j.CacheState(), time.Since(start), err
	}

	coldRes, state, coldLat, err := req(topomap.JobOptions{})
	if err != nil {
		return err
	}
	if state != topomap.CacheMiss {
		return fmt.Errorf("e19: headline cold request state %v", state)
	}
	fresh, state, _, err := req(topomap.JobOptions{NoCache: true})
	if err != nil {
		return err
	}
	if state != topomap.CacheNone {
		return fmt.Errorf("e19: headline nocache request state %v", state)
	}
	ident := e19Identical(coldRes, fresh)

	const hits = 32
	hitLats := make([]time.Duration, 0, hits)
	for i := 0; i < hits; i++ {
		res, state, lat, err := req(topomap.JobOptions{})
		if err != nil {
			return err
		}
		if state != topomap.CacheHit {
			return fmt.Errorf("e19: headline repeat request state %v", state)
		}
		ident = ident && e19Identical(res, fresh)
		hitLats = append(hitLats, lat)
	}
	st := svc.Stats()
	e19Row(t, fmt.Sprintf("headline ring-%d", n), 1, 1, 2+hits, int(st.Served),
		st, hitLats, []time.Duration{coldLat}, ident)
	return nil
}

// e19Catalog builds the irregular-family working set and its identity
// baselines (one independent direct map per graph).
func e19Catalog(n int) ([]*graph.Graph, []*topomap.Result, error) {
	var catalog []*graph.Graph
	for _, fam := range []graph.Family{
		graph.FamilyErdosRenyi, graph.FamilyBarabasiAlbert,
		graph.FamilyASTiers, graph.FamilyChordalRing,
	} {
		for _, seed := range []int64{1, 2} {
			g, err := graph.Build(fam, n, seed)
			if err != nil {
				return nil, nil, err
			}
			catalog = append(catalog, g)
		}
	}
	sess := topomap.NewSession(topomap.Options{Workers: 1})
	defer sess.Close()
	baselines := make([]*topomap.Result, len(catalog))
	for i, g := range catalog {
		res, err := sess.Map(g)
		if err != nil {
			return nil, nil, err
		}
		baselines[i] = res
	}
	return catalog, baselines, nil
}

// e19ZipfRound runs one traffic round: `clients` goroutines each issuing
// `perClient` Zipf-distributed requests against a fresh, cold-cached
// service of `pool` sessions.
func e19ZipfRound(t *Table, catalog []*graph.Graph, baselines []*topomap.Result, pool, clients, perClient int) error {
	svc := topomap.NewService(topomap.ServiceOptions{
		Options:    topomap.Options{Workers: 1},
		Sessions:   pool,
		QueueDepth: clients * perClient,
		CacheBytes: 64 << 20,
	})
	defer svc.Close()

	var mu sync.Mutex
	var hitLats, coldLats []time.Duration
	ident := true
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			// Deterministic Zipf-ish popularity: rank exponent 1.4 over the
			// catalog, per-client seed so clients overlap on the popular
			// graphs (the collapse driver) without lockstep.
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(97+c))), 1.4, 1, uint64(len(catalog)-1))
			for i := 0; i < perClient; i++ {
				idx := int(zipf.Uint64())
				start := time.Now()
				j, err := svc.Submit(context.Background(), catalog[idx], topomap.JobOptions{})
				if err != nil {
					errs <- err
					return
				}
				res, err := j.Await(context.Background())
				if err != nil {
					errs <- err
					return
				}
				lat := time.Since(start)
				mu.Lock()
				ident = ident && e19Identical(res, baselines[idx])
				switch j.CacheState() {
				case topomap.CacheHit:
					hitLats = append(hitLats, lat)
				case topomap.CacheMiss:
					coldLats = append(coldLats, lat)
				}
				mu.Unlock()
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	st := svc.Stats()
	e19Row(t, "zipf", pool, clients, clients*perClient, int(st.Served), st, hitLats, coldLats, ident)
	return nil
}

// e19Row appends one measured row.
func e19Row(t *Table, mode string, pool, clients, requests, runs int, st topomap.ServiceStats,
	hitLats, coldLats []time.Duration, ident bool) {
	pct := func(lats []time.Duration, q int) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		i := len(lats) * q / 100
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	hitPct := 100 * float64(st.CacheHits) / float64(requests)
	collapse := 0.0
	if st.CacheMisses > 0 {
		collapse = float64(st.CacheMisses+st.CacheShared) / float64(st.CacheMisses)
	}
	hitP50, hitP99 := pct(hitLats, 50), pct(hitLats, 99)
	coldP50, coldP99 := pct(coldLats, 50), pct(coldLats, 99)
	speedup := 0.0
	if hitP50 > 0 {
		speedup = float64(coldP50) / float64(hitP50)
	}
	id := "yes"
	if !ident {
		id = "NO"
	}
	t.Rows = append(t.Rows, []string{mode, fmtI(pool), fmtI(clients), fmtI(requests), fmtI(runs),
		fmtF(hitPct), fmtI(int(st.CacheShared)), fmtF(collapse),
		fmtF(float64(hitP50.Nanoseconds()) / 1e3), fmtF(float64(hitP99.Nanoseconds()) / 1e3),
		fmtF(float64(coldP50.Nanoseconds()) / 1e6), fmtF(float64(coldP99.Nanoseconds()) / 1e6),
		fmtF(speedup), id})
}

// e19Identical is the bit-identity oracle: result statistics, transaction
// count, and the reconstruction itself must all match.
func e19Identical(a, b *topomap.Result) bool {
	return a != nil && b != nil && a.Ticks == b.Ticks && a.Messages == b.Messages &&
		a.Transactions == b.Transactions && a.Topology.Equal(b.Topology)
}
