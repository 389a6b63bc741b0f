package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"topomap"
	"topomap/internal/graph"
	"topomap/internal/remap"
)

// E21IncrementalRemap charts incremental-vs-full remap cost as a function of
// delta size across the ring/torus/er/ba families: the dynamic-network
// experiment behind Session.Remap and PATCH /map.
//
// Comparator discipline. The "full remap" a serving tier pays without the
// delta layer is a cold protocol run of the mutated network. That is measured
// directly at engine-feasible sizes (the small-N block of each family); at
// the large sizes — including the headline ring-10^4 — the protocol's tick
// growth makes a direct run infeasible (that infeasibility is the point of
// the incremental path), so the engine cost is extrapolated per family as
// t(mid)·(N/mid)^α with α fit from the family's two engine-measured sizes,
// and the measured clone+structural-rebuild (remap.Rebuild, itself only
// correct because of this PR's preorder theorem) is shown alongside as a
// conservative measured lower bound. Correctness never extrapolates: every
// patched reconstruction is graph.Equal to — and shares CanonicalDigest(0)
// with — its full-map reference (the engine result where measured, the
// structural rebuild above that).
//
// Delta kinds per family: label-stable batches of 1/8/64 edge ops (chord
// inserts on families with free ports, crossed rewires of non-tree edges on
// port-saturated ones like the torus), a bounded-replay chord dirtying ~N/8
// labels, and a "deep" delta dirtying more than the 25% fallback threshold —
// which must refuse the patch (remap.ErrTooDirty), take the engine path, and
// be counted.
func E21IncrementalRemap(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E21",
		Title: "Incremental remap vs full remap for dynamic networks",
		Claim: "perf: single-edge deltas patch ≥10× under the full remap on ring-10^4 with bit-equal results; over-threshold deltas fall back to the engine and are counted",
		Columns: []string{"family", "n", "delta", "ops", "dirty", "path",
			"inc µs", "struct µs", "full ms", "full", "speedup", "equal"},
	}
	small, mid := 48, 96
	if s == Full {
		small, mid = 96, 192
	}
	families := []struct {
		name  string
		fam   graph.Family
		large int
	}{
		{"ring", graph.FamilyRing, 10_000},
		{"torus", graph.FamilyTorus, 10_000},
		{"er", graph.FamilyErdosRenyi, 4_096},
		{"ba", graph.FamilyBarabasiAlbert, 4_096},
	}

	sess := topomap.NewSession(topomap.Options{})

	fallbacks := 0
	for _, f := range families {
		tSmall, nSmall, err := e21EngineRows(t, sess, f.name, f.fam, small, &fallbacks)
		if err != nil {
			return nil, fmt.Errorf("e21 %s/%d: %v", f.name, small, err)
		}
		gMid, err := graph.Build(f.fam, mid, 1)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := sess.Map(gMid); err != nil {
			return nil, err
		}
		tMid, nMid := time.Since(start), gMid.N()
		alpha := math.Log(float64(tMid)/float64(tSmall)) / math.Log(float64(nMid)/float64(nSmall))
		if alpha < 1.5 {
			alpha = 1.5 // timer-noise guard; the protocol is superquadratic
		} else if alpha > 3.5 {
			alpha = 3.5
		}
		t.Notes = append(t.Notes, fmt.Sprintf("α(%s) = %.2f fit from engine runs at N=%d (%.0f ms) and N=%d (%.0f ms)",
			f.name, alpha, nSmall, float64(tSmall.Microseconds())/1e3, nMid, float64(tMid.Microseconds())/1e3))
		if err := e21StructRows(t, f.name, f.fam, f.large, nMid, tMid, alpha); err != nil {
			return nil, fmt.Errorf("e21 %s/%d: %v", f.name, f.large, err)
		}
	}
	t.Notes = append(t.Notes,
		"full = engine: measured cold protocol run of the mutated network (warm session); full = est: that cost extrapolated as t(mid)·(N/mid)^α — direct engine runs at the large sizes are infeasible, which is the penalty the incremental path removes",
		"struct µs is the measured clone + structural rebuild (remap.Rebuild) of the mutated network: the theorem-powered full rebuild, a conservative measured lower bound on any full remap",
		"equal: the patched reconstruction is graph.Equal to and shares CanonicalDigest(0) with the full-map reference — the engine result on engine-measured rows, the structural rebuild elsewhere; correctness is never extrapolated",
		fmt.Sprintf("deep deltas (dirty > 25%% of N) refused the patch (remap.ErrTooDirty) and fell back to the engine %d times — counted, speedup 1.00 by construction; their forced patches (maxdirty=1) are also bit-equal", fallbacks),
		"the ring-10000 ins×1 row is the PR's acceptance bound: incremental remap ≥10× under the full remap for a single-edge delta",
		hostNote())
	return t, nil
}

// e21EngineRows emits one family's engine-measured block at an engine-
// feasible size: label-stable, bounded-replay, and over-threshold deltas,
// each compared against a real cold protocol run of the mutated network.
// It returns the cold-map time and node count of the base graph for the
// family's scaling fit.
func e21EngineRows(t *Table, sess *topomap.Session, name string, fam graph.Family, size int, fallbacks *int) (time.Duration, int, error) {
	g, err := graph.Build(fam, size, 1)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	res, err := sess.Map(g)
	if err != nil {
		return 0, 0, err
	}
	tBase := time.Since(start)
	recon := res.Topology
	st, err := remap.Derive(recon)
	if err != nil {
		return 0, 0, err
	}
	n := recon.N()

	kinds := []struct {
		build func() (*graph.Delta, string, error)
		deep  bool
	}{
		{func() (*graph.Delta, string, error) { return e21StableDelta(recon, st, 1) }, false},
		{func() (*graph.Delta, string, error) { return e21RiskyDelta(recon, st, n-n/8, n-2, "chord") }, false},
		{func() (*graph.Delta, string, error) { return e21RiskyDelta(recon, st, 1, n/2, "deep") }, true},
	}
	for _, k := range kinds {
		d, label, err := k.build()
		if err != nil {
			return 0, 0, err
		}
		g1, err := d.ApplyClone(recon)
		if err != nil {
			return 0, 0, err
		}
		startMut := time.Now()
		resMut, err := sess.Map(g1)
		if err != nil {
			return 0, 0, err
		}
		full := time.Since(startMut)
		structT, err := e21Time(8, func() error {
			g2, err := d.ApplyClone(recon)
			if err != nil {
				return err
			}
			_, _, err = remap.Rebuild(g2, 0)
			return err
		})
		if err != nil {
			return 0, 0, err
		}

		if k.deep {
			// The patch must refuse at the default threshold; the serve cost
			// of the fallback is the engine run itself.
			if _, err := remap.Patch(recon, st, d, remap.Options{}); !errors.Is(err, remap.ErrTooDirty) {
				return 0, 0, fmt.Errorf("deep delta did not trip the fallback threshold: %v", err)
			}
			*fallbacks++
			forced, err := remap.Patch(recon, st, d, remap.Options{MaxDirtyFrac: 1})
			if err != nil {
				return 0, 0, err
			}
			e21Row(t, name, n, label, len(d.Ops), forced.Dirty, "fallback",
				full, structT, full, "engine", e21Equal(forced.Graph, resMut.Topology))
			continue
		}

		var pr *remap.Result
		inc, err := e21Time(16, func() error {
			var perr error
			pr, perr = remap.Patch(recon, st, d, remap.Options{})
			return perr
		})
		if err != nil {
			return 0, 0, err
		}
		path := "stable"
		if pr.Replayed {
			path = "replay"
		}
		e21Row(t, name, n, label, len(d.Ops), pr.Dirty, path,
			inc, structT, full, "engine", e21Equal(pr.Graph, resMut.Topology))
	}
	return tBase, n, nil
}

// e21StructRows emits one family's large-N block: the delta-size sweep
// (1/8/64 edge ops) plus a bounded replay, with the engine comparator
// extrapolated and equality pinned against the structural full rebuild.
func e21StructRows(t *Table, name string, fam graph.Family, size, nMid int, tMid time.Duration, alpha float64) error {
	g, err := graph.Build(fam, size, 1)
	if err != nil {
		return err
	}
	recon, st, err := remap.Rebuild(g, 0)
	if err != nil {
		return err
	}
	n := recon.N()
	est := time.Duration(float64(tMid) * math.Pow(float64(n)/float64(nMid), alpha))

	deltas := make([]*graph.Delta, 0, 4)
	labels := make([]string, 0, 4)
	for _, k := range []int{1, 8, 64} {
		d, label, err := e21StableDelta(recon, st, k)
		if err != nil {
			return err
		}
		deltas, labels = append(deltas, d), append(labels, label)
	}
	d, label, err := e21RiskyDelta(recon, st, n-n/8, n-2, "chord")
	if err != nil {
		return err
	}
	deltas, labels = append(deltas, d), append(labels, label)

	for i, d := range deltas {
		var pr *remap.Result
		inc, err := e21Time(16, func() error {
			var perr error
			pr, perr = remap.Patch(recon, st, d, remap.Options{})
			return perr
		})
		if err != nil {
			return err
		}
		structT, err := e21Time(8, func() error {
			g2, err := d.ApplyClone(recon)
			if err != nil {
				return err
			}
			_, _, err = remap.Rebuild(g2, 0)
			return err
		})
		if err != nil {
			return err
		}
		g1, err := d.ApplyClone(recon)
		if err != nil {
			return err
		}
		ref, _, err := remap.Rebuild(g1, 0)
		if err != nil {
			return err
		}
		path := "stable"
		if pr.Replayed {
			path = "replay"
		}
		e21Row(t, name, n, labels[i], len(d.Ops), pr.Dirty, path,
			inc, structT, est, "est", e21Equal(pr.Graph, ref))
	}
	return nil
}

// e21Row appends one measured row.
func e21Row(t *Table, name string, n int, label string, ops, dirty int, path string,
	inc, structT, full time.Duration, fullMode string, equal bool) {
	speedup := float64(full) / float64(inc)
	eq := "yes"
	if !equal {
		eq = "NO"
	}
	t.Rows = append(t.Rows, []string{name, fmtI(n), label, fmtI(ops), fmtI(dirty), path,
		fmtF(float64(inc.Nanoseconds()) / 1e3), fmtF(float64(structT.Nanoseconds()) / 1e3),
		e21Big(float64(full.Nanoseconds()) / 1e6), fullMode, e21Big(speedup), eq})
}

// e21Big formats values spanning microseconds to extrapolated hours.
func e21Big(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.2e", v)
	}
	return fmtF(v)
}

// e21Time reports the best of iters runs of f, after one untimed warmup run
// (the first touch of a fresh reconstruction's arenas is not the steady state
// being measured).
func e21Time(iters int, f func() error) (time.Duration, error) {
	if err := f(); err != nil {
		return 0, err
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// e21Equal is the bit-equality oracle: same graph, same content address.
func e21Equal(a, b *graph.Graph) bool {
	da, db := a.CanonicalDigest(0), b.CanonicalDigest(0)
	return a.Equal(b) && da == db
}

// e21FreePort finds a port of v unwired in r and unused by the batch so far.
func e21FreePort(r *graph.Graph, used map[[2]int]bool, v int, out bool) int {
	for p := 1; p <= r.Delta(); p++ {
		if used[[2]int{v, p}] {
			continue
		}
		var wired bool
		if out {
			_, wired = r.OutEndpoint(v, p)
		} else {
			_, wired = r.InEndpoint(v, p)
		}
		if !wired {
			return p
		}
	}
	return 0
}

// e21StableDelta builds a label-stable batch of about k edge ops against the
// reconstruction r: chord inserts u→v with v discovered before u (free ports
// permitting), or — on port-saturated families like the torus — crossed
// rewires of non-tree edge pairs whose re-inserts both target earlier
// labels. The returned label is "ins×k" or "rw×k" with the actual op count.
func e21StableDelta(r *graph.Graph, st *remap.State, k int) (*graph.Delta, string, error) {
	n := r.N()
	usedOut, usedIn := map[[2]int]bool{}, map[[2]int]bool{}
	d := new(graph.Delta)
	ins := 0
	for from := n - 1; from >= 1 && ins < k; from-- {
		p := e21FreePort(r, usedOut, from, true)
		if p == 0 {
			continue
		}
		for to := 0; to < from; to++ {
			if q := e21FreePort(r, usedIn, to, false); q != 0 {
				d.Insert(from, p, to, q)
				usedOut[[2]int{from, p}] = true
				usedIn[[2]int{to, q}] = true
				ins++
				break
			}
		}
	}
	if ins > 0 {
		return d, fmt.Sprintf("ins×%d", ins), nil
	}

	// No free ports anywhere: cross non-tree edges. Deleting a non-tree edge
	// is label-stable, and sorting candidates by From−To descending makes
	// both re-inserts (a→d', c→b for pair a→b, c→d') target earlier labels.
	pool := e21NonTreeEdges(r, st)
	sort.Slice(pool, func(i, j int) bool {
		return pool[i].From-pool[i].To > pool[j].From-pool[j].To
	})
	var pairs [][2]graph.Edge
	build := func(pairs [][2]graph.Edge) *graph.Delta {
		d := new(graph.Delta)
		for _, pr := range pairs {
			e1, e2 := pr[0], pr[1]
			d.Delete(e1.From, e1.OutPort, e1.To, e1.InPort).
				Delete(e2.From, e2.OutPort, e2.To, e2.InPort).
				Insert(e1.From, e1.OutPort, e2.To, e2.InPort).
				Insert(e2.From, e2.OutPort, e1.To, e1.InPort)
		}
		return d
	}
	used := map[graph.Edge]bool{}
	for i := 0; i < len(pool) && len(pairs)*4 < k+3; i++ {
		e1 := pool[i]
		if used[e1] {
			continue
		}
		for j := i + 1; j < len(pool); j++ {
			e2 := pool[j]
			if used[e2] || e2.To >= e1.From || e1.To >= e2.From ||
				e1.From == e2.To || e2.From == e1.To {
				continue
			}
			cand := build(append(pairs, [2]graph.Edge{e1, e2}))
			g1, err := cand.ApplyClone(r)
			if err != nil || g1.Validate() != nil {
				continue // this crossing breaks the model; try another partner
			}
			pairs = append(pairs, [2]graph.Edge{e1, e2})
			used[e1], used[e2] = true, true
			break
		}
	}
	if len(pairs) == 0 {
		return nil, "", fmt.Errorf("no label-stable delta exists: no free ports and no crossable non-tree edges")
	}
	d = build(pairs)
	return d, fmt.Sprintf("rw×%d", len(d.Ops)), nil
}

// e21RiskyDelta builds a model-preserving delta whose replay cut falls in
// [lo, hi): a chord u→v with v discovered after u (cut u+1), or — when ports
// are saturated — a tree-edge rewire crossing the edge that discovered a
// child in the window with a non-tree edge (cut = the child's label).
func e21RiskyDelta(r *graph.Graph, st *remap.State, lo, hi int, label string) (*graph.Delta, string, error) {
	n := r.N()
	if lo < 1 {
		lo = 1
	}
	for from := lo - 1; from <= hi-2 && from < n-1; from++ {
		p := r.FreeOutPort(from)
		if p == 0 {
			continue
		}
		for to := from + 1; to < n; to++ {
			if q := r.FreeInPort(to); q != 0 {
				return new(graph.Delta).Insert(from, p, to, q), label, nil
			}
		}
	}

	pool := e21NonTreeEdges(r, st)
	for child := lo; child < hi && child < n; child++ {
		a, p1 := remap.Parent(st, child)
		if a < 0 {
			continue
		}
		ep, ok := r.OutEndpoint(a, p1)
		if !ok || ep.Node != child {
			return nil, "", fmt.Errorf("remap state disagrees with the reconstruction at node %d", child)
		}
		q1 := ep.Port
		for _, e2 := range pool {
			// Re-inserts a→e2.To and e2.From→child must not cut below lo.
			if e2.From == child || e2.To == a ||
				(e2.To >= a && a+1 < lo) || (child >= e2.From && e2.From+1 < lo) {
				continue
			}
			d := new(graph.Delta).Delete(a, p1, child, q1).
				Delete(e2.From, e2.OutPort, e2.To, e2.InPort).
				Insert(a, p1, e2.To, e2.InPort).
				Insert(e2.From, e2.OutPort, child, q1)
			g1, err := d.ApplyClone(r)
			if err != nil || g1.Validate() != nil {
				continue
			}
			return d, label, nil
		}
	}
	return nil, "", fmt.Errorf("no delta with a replay cut in [%d,%d) exists", lo, hi)
}

// e21NonTreeEdges lists the edges of r that did not discover their target —
// the label-stable deletion candidates.
func e21NonTreeEdges(r *graph.Graph, st *remap.State) []graph.Edge {
	var out []graph.Edge
	for _, e := range r.Edges() {
		if p, port := remap.Parent(st, e.To); p == e.From && port == e.OutPort {
			continue
		}
		out = append(out, e)
	}
	return out
}
