package experiments

import (
	"context"
	"sort"
	"sync"
	"time"

	"topomap"
)

// E16ServedThroughput measures the serving layer (topomap.NewService — the
// pool behind cmd/topomapd): concurrent clients submitting mapping jobs to a
// warm session pool, swept over pool sizes and client counts. Three claims:
//
//  1. The daemon sustains at least pool-size concurrent clients: every
//     served result is bit-identical to a direct Map, at every pool size
//     and client count (the identical column), with client-observed p50/p99
//     latency reported per row.
//  2. Warm sessions carry the load: after warm-up, every serve is a warm
//     hit (the warm% column), and allocs/run stays within 2× of the E13
//     batch steady state (the "batch" anchor row is measured here, in the
//     same process, for that comparison — experiments_test asserts it).
//  3. Throughput scales with the pool while clients ≤ pool; oversubscribed
//     rows (clients = 2×pool) trade latency, never correctness.
//
// Per-run engine workers are pinned to 1, as in E13: the service scales
// across sessions, not within a run.
func E16ServedThroughput(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Served throughput and latency over the service pool",
		Claim:   "engineering: the service layer sustains ≥ pool-size concurrent clients with bit-identical results, 100% warm serves after warm-up, and allocs/run within 2× of the E13 batch steady state",
		Columns: []string{"mode", "pool", "clients", "jobs", "wall ms", "jobs/s", "p50 ms", "p99 ms", "allocs/run", "warm%", "identical"},
	}
	ringN, perClient := 24, 8
	if s == Full {
		ringN, perClient = 64, 16
	}
	g := topomap.Ring(ringN)
	opts := topomap.Options{Workers: 1}
	baseline, err := topomap.Map(g, opts)
	if err != nil {
		return nil, err
	}
	identical := func(r *topomap.Result) bool {
		return r != nil && r.Ticks == baseline.Ticks && r.Messages == baseline.Messages &&
			r.Transactions == baseline.Transactions && r.Topology.Equal(baseline.Topology)
	}
	row := func(mode string, pool, clients, jobs int, wall time.Duration, lats []time.Duration, allocs uint64, warmPct float64, ident bool) {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(q int) float64 {
			if len(lats) == 0 {
				return 0
			}
			i := len(lats) * q / 100
			if i >= len(lats) {
				i = len(lats) - 1
			}
			return float64(lats[i].Microseconds()) / 1000
		}
		id := "yes"
		if !ident {
			id = "NO"
		}
		t.Rows = append(t.Rows, []string{mode, fmtI(pool), fmtI(clients), fmtI(jobs),
			fmtF(float64(wall.Milliseconds())),
			fmtF(float64(jobs) / wall.Seconds()),
			fmtF(pct(50)), fmtF(pct(99)),
			fmtI(int(allocs) / jobs),
			fmtF(warmPct), id})
	}

	// Anchor rows, measured in this same process so the 2× comparison is
	// apples to apples: a bare warm session (the allocation floor), and
	// MapBatch over the same jobs (the E13 steady state).
	jobs := perClient
	sess := topomap.NewSession(opts)
	if _, err := sess.Map(g); err != nil {
		sess.Close()
		return nil, err
	}
	var dLats []time.Duration
	ident := true
	dWall, dAllocs, err := measure(func() error {
		for i := 0; i < jobs; i++ {
			start := time.Now()
			res, err := sess.Map(g)
			if err != nil {
				return err
			}
			dLats = append(dLats, time.Since(start))
			ident = ident && identical(res)
		}
		return nil
	})
	sess.Close()
	if err != nil {
		return nil, err
	}
	row("session (direct)", 1, 1, jobs, dWall, dLats, dAllocs, 100, ident)

	batchGraphs := make([]*topomap.Graph, jobs)
	for i := range batchGraphs {
		batchGraphs[i] = g
	}
	var batchItems []topomap.BatchItem
	bWall, bAllocs, err := measure(func() error {
		var err error
		batchItems, err = topomap.MapBatch(context.Background(), batchGraphs,
			topomap.BatchOptions{Options: opts, Sessions: 1, StopOnError: true})
		return err
	})
	if err != nil {
		return nil, err
	}
	ident = true
	for _, it := range batchItems {
		ident = ident && it.Err == nil && identical(it.Result)
	}
	row("batch (E13)", 1, 1, jobs, bWall, nil, bAllocs, 100, ident)

	// The served sweep: pool sizes × {pool, 2×pool} concurrent clients.
	for _, pool := range []int{1, 2, 4} {
		for _, clients := range []int{pool, 2 * pool} {
			svc := topomap.NewService(topomap.ServiceOptions{
				Options:    opts,
				Sessions:   pool,
				QueueDepth: 2 * clients * perClient,
			})
			// Warm-up: exercise every session at least once, provably. A
			// shared queue cannot guarantee a fan-out by count alone (a
			// fast worker could drain several warm-up jobs before a slow
			// sibling wakes), so the warm-up jobs rendezvous: each blocks
			// in its first progress callback until `pool` jobs are running
			// simultaneously — and one session serves one job at a time,
			// so that moment proves every session held a run.
			if err := warmUp(svc, g, pool); err != nil {
				svc.Close()
				return nil, err
			}
			before := svc.Stats()

			jobs := clients * perClient
			lats := make([]time.Duration, 0, jobs)
			allIdent := true
			var mu sync.Mutex
			wall, allocs, err := measure(func() error {
				return serveRound(svc, g, clients, perClient, func(lat time.Duration, res *topomap.Result) {
					mu.Lock()
					lats = append(lats, lat)
					allIdent = allIdent && identical(res)
					mu.Unlock()
				})
			})
			if err != nil {
				svc.Close()
				return nil, err
			}
			after := svc.Stats()
			served := after.Served - before.Served
			warmPct := 0.0
			if served > 0 {
				warmPct = 100 * float64(after.WarmServes-before.WarmServes) / float64(served)
			}
			if err := svc.Close(); err != nil {
				return nil, err
			}
			row("served", pool, clients, jobs, wall, lats, allocs, warmPct, allIdent)
		}
	}
	t.Notes = append(t.Notes,
		"served rows submit through topomap.NewService — the same pool cmd/topomapd fronts with HTTP; each client loops Submit+Await sequentially, so outstanding jobs = clients",
		"allocs/run is the process-wide heap-allocation delta over the measured window divided by jobs (the E13 measure); the acceptance bound is served ≤ 2× the batch (E13) anchor row",
		"warm% is the fraction of measured serves on an already-exercised session: 100 after warm-up, by construction of the pool",
		"p50/p99 are client-observed submit-to-result latencies; oversubscribed rows (clients = 2×pool) queue, which shows up as latency, never as a result bit",
		hostNote())
	return t, nil
}

// warmUp submits `pool` jobs whose first progress events rendezvous: every
// job parks until all of them are in flight at once, which (one job per
// session) guarantees each of the pool's sessions has served a run before
// the measured round starts.
func warmUp(svc *topomap.Service, g *topomap.Graph, pool int) error {
	var running sync.WaitGroup
	running.Add(pool)
	release := make(chan struct{})
	go func() {
		running.Wait()
		close(release)
	}()
	jobs := make([]*topomap.Job, 0, pool)
	for i := 0; i < pool; i++ {
		var once sync.Once
		j, err := svc.Submit(context.Background(), g, topomap.JobOptions{
			ProgressEvery: 1,
			Progress: func(topomap.Progress) {
				once.Do(running.Done)
				<-release
			},
		})
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if _, err := j.Await(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// serveRound runs `clients` goroutines, each submitting `perClient`
// sequential jobs for g to the service, invoking done (if non-nil) with
// each client-observed latency and result.
func serveRound(svc *topomap.Service, g *topomap.Graph, clients, perClient int, done func(time.Duration, *topomap.Result)) error {
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for i := 0; i < perClient; i++ {
				start := time.Now()
				res, err := svc.Map(context.Background(), g)
				if err != nil {
					errs <- err
					return
				}
				if done != nil {
					done(time.Since(start), res)
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}
