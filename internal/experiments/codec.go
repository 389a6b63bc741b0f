package experiments

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"topomap"
	"topomap/internal/graph"
)

// E20WireCodec measures the binary wire codec (DESIGN.md §2.8) against the
// plain-text format, and the zero-copy serving fast path built on it. Three
// claims:
//
//  1. Decoding the tmg1 frame is several times faster than parsing the text
//     format at every size, because the payload is fixed-width words the
//     decoder scans without tokenizing; encode wins by a similar margin. Both
//     directions round-trip: decode(encode(g)) is graph.Equal to g in both
//     codecs on every measured graph.
//  2. A warm cache hit served through Service.Lookup plus the entry's
//     pre-encoded bytes (the topomapd binary fast path) beats the classic
//     Submit+Await+MarshalString+JSON pipeline on the same traffic, and
//     allocates almost nothing per request — the encodings were paid once,
//     when the entry was populated.
//  3. The fast path serves the same topology: every binary frame served
//     under the Zipf stream decodes Equal to an independent uncached map of
//     the same graph.
//
// Rows come in three modes sharing one column set: decode and encode rows
// report per-op latency percentiles and throughput for both codecs; serve
// rows report client-observed hit latencies of the two serving pipelines,
// their ratio, and the fast path's measured allocations per request.
func E20WireCodec(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E20",
		Title: "Binary wire codec vs text, and the zero-copy serving fast path",
		Claim: "perf: tmg1 decode is multiples of text-parse throughput with exact round-trips; warm hits served from pre-encoded bytes beat the JSON pipeline at near-zero allocs/hit",
		Columns: []string{"mode", "case", "n", "text p50 µs", "text p99 µs", "bin p50 µs", "bin p99 µs",
			"ratio", "text MB/s", "bin MB/s", "allocs/hit", "ok"},
	}

	sizes := []int{1024, 8192}
	catalogN, requests := 48, 256
	if s == Full {
		sizes = []int{10_000, 100_000}
		catalogN, requests = 96, 1024
	}

	for _, fam := range []graph.Family{graph.FamilyRing, graph.FamilyErdosRenyi, graph.FamilyBarabasiAlbert} {
		for _, n := range sizes {
			if err := e20CodecRows(t, fam, n); err != nil {
				return nil, err
			}
		}
	}
	if err := e20ServeRow(t, catalogN, requests); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"decode/encode rows: per-op latency over repeated runs of one graph; MB/s is the codec's own encoded size over its p50; ratio = text p50 / bin p50",
		"serve row: warm-cache Zipf(1.4) traffic over the irregular catalog; text = Submit+Await+MarshalString+json.Encode→io.Discard (the pre-codec pipeline), bin = Service.Lookup + 56-byte frame header + pre-encoded bytes→io.Discard (the topomapd fast path); ratio = text p50 / bin p50",
		"allocs/hit: mallocs delta across the binary loop over requests — the fast path re-encodes nothing, so it stays in single digits",
		"ok asserts the round-trip (codec rows: both decodes Equal the source) and identity (serve row: every served frame decodes Equal to an uncached map)")
	return t, nil
}

// e20CodecRows measures one (family, n) graph through both codecs, both
// directions.
func e20CodecRows(t *Table, fam graph.Family, n int) error {
	g, err := graph.Build(fam, n, 1)
	if err != nil {
		return err
	}
	text := g.MarshalString()
	bin, err := g.MarshalBinary()
	if err != nil {
		return err
	}

	// Round-trip both codecs once, up front; every timed run below decodes
	// the same bytes.
	fromText, err := graph.UnmarshalString(text)
	if err != nil {
		return err
	}
	fromBin, err := graph.UnmarshalBinary(bin)
	if err != nil {
		return err
	}
	ok := fromText.Equal(g) && fromBin.Equal(g)

	reps := 2_000_000 / n
	if reps < 5 {
		reps = 5
	}
	if reps > 200 {
		reps = 200
	}
	textDec := e20Time(reps, func() error { _, err := graph.UnmarshalString(text); return err })
	binDec := e20Time(reps, func() error { _, err := graph.UnmarshalBinary(bin); return err })
	textEnc := e20Time(reps, func() error { _ = g.MarshalString(); return nil })
	binEnc := e20Time(reps, func() error { _, err := g.MarshalBinary(); return err })

	e20Row(t, "decode", string(fam), n, textDec, binDec, len(text), len(bin), -1, ok)
	e20Row(t, "encode", string(fam), n, textEnc, binEnc, len(text), len(bin), -1, ok)
	return nil
}

// e20Time runs fn reps times and returns the sorted per-op durations.
func e20Time(reps int, fn func() error) []time.Duration {
	lats := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil
		}
		lats = append(lats, time.Since(start))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats
}

// e20ServeRow compares the two serving pipelines on identical warm-cache
// Zipf traffic: the classic JSON pipeline versus the zero-copy fast path.
func e20ServeRow(t *Table, catalogN, requests int) error {
	catalog, baselines, err := e19Catalog(catalogN)
	if err != nil {
		return err
	}
	svc := topomap.NewService(topomap.ServiceOptions{
		Sessions:   1,
		QueueDepth: 16,
		CacheBytes: 64 << 20,
	})
	defer svc.Close()
	for _, g := range catalog {
		if _, err := svc.Map(context.Background(), g); err != nil {
			return err
		}
	}

	// One deterministic Zipf stream, replayed against both pipelines so they
	// see the same request mix.
	zipf := rand.NewZipf(rand.New(rand.NewSource(97)), 1.4, 1, uint64(len(catalog)-1))
	stream := make([]int, requests)
	for i := range stream {
		stream[i] = int(zipf.Uint64())
	}

	// Text pipeline: the pre-codec serving cost — run the job (a cache hit),
	// then re-encode the topology per request, text plus JSON envelope.
	textLats := make([]time.Duration, 0, requests)
	enc := json.NewEncoder(io.Discard)
	for _, idx := range stream {
		start := time.Now()
		j, err := svc.Submit(context.Background(), catalog[idx], topomap.JobOptions{})
		if err != nil {
			return err
		}
		res, err := j.Await(context.Background())
		if err != nil {
			return err
		}
		payload := struct {
			N, Ticks     int
			Messages     int64
			Transactions int
			Graph        string
		}{res.Topology.N(), res.Ticks, res.Messages, res.Transactions, res.Topology.MarshalString()}
		if err := enc.Encode(&payload); err != nil {
			return err
		}
		textLats = append(textLats, time.Since(start))
	}

	// Binary fast path: Lookup, a 56-byte header from the stack, the entry's
	// shared pre-encoded bytes. Allocations counted across the whole loop.
	binLats := make([]time.Duration, 0, requests)
	ident := true
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, idx := range stream {
		start := time.Now()
		ent := svc.Lookup(catalog[idx], 0)
		if ent == nil {
			return fmt.Errorf("e20: warm catalog graph %d missed the cache", idx)
		}
		var hdr [56]byte
		binary.LittleEndian.PutUint32(hdr[8:], uint32(catalog[idx].N()))
		binary.LittleEndian.PutUint64(hdr[48:], uint64(len(ent.Binary())))
		if _, err := io.Discard.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := io.Discard.Write(ent.Binary()); err != nil {
			return err
		}
		binLats = append(binLats, time.Since(start))
	}
	runtime.ReadMemStats(&after)
	allocsPerHit := float64(after.Mallocs-before.Mallocs) / float64(requests)

	// Identity: each distinct served frame decodes Equal to the uncached
	// baseline map of its graph.
	for idx, base := range baselines {
		ent := svc.Lookup(catalog[idx], 0)
		if ent == nil {
			return fmt.Errorf("e20: catalog graph %d evicted", idx)
		}
		served, err := graph.UnmarshalBinary(ent.Binary())
		if err != nil {
			return err
		}
		ident = ident && served.Equal(base.Topology) && ent.Exact()
	}

	sort.Slice(textLats, func(i, j int) bool { return textLats[i] < textLats[j] })
	e20Row(t, "serve", "zipf", catalogN, textLats, binLats, 0, 0, allocsPerHit, ident)
	return nil
}

// e20Row appends one row; sizes of 0 suppress the MB/s columns, a negative
// allocs value suppresses that column.
func e20Row(t *Table, mode, name string, n int, textLats, binLats []time.Duration,
	textSize, binSize int, allocs float64, ok bool) {
	pct := func(lats []time.Duration, q int) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := len(lats) * q / 100
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	textP50, textP99 := pct(textLats, 50), pct(textLats, 99)
	binP50, binP99 := pct(binLats, 50), pct(binLats, 99)
	ratio := 0.0
	if binP50 > 0 {
		ratio = float64(textP50) / float64(binP50)
	}
	mbps := func(size int, d time.Duration) string {
		if size == 0 || d == 0 {
			return "-"
		}
		return fmtF(float64(size) / d.Seconds() / (1 << 20))
	}
	allocsCell := "-"
	if allocs >= 0 {
		allocsCell = fmtF(allocs)
	}
	verdict := "yes"
	if !ok {
		verdict = "NO"
	}
	us := func(d time.Duration) string { return fmtF(float64(d.Nanoseconds()) / 1e3) }
	t.Rows = append(t.Rows, []string{mode, name, fmtI(n),
		us(textP50), us(textP99), us(binP50), us(binP99), fmtF(ratio),
		mbps(textSize, textP50), mbps(binSize, binP50), allocsCell, verdict})
}
