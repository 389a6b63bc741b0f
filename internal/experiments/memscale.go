package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"time"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
)

// E18 charts the memory footprint of the packed-plane engine across graph
// families and sizes up to a million nodes. Each row runs a fixed tick
// window of the protocol (large maps do not terminate inside any reasonable
// budget, and a fixed window pins the transcript byte-for-byte across
// engine versions), then reports two independent bytes/node measures:
//
//   - acct: the engine's own accounting (sim.MemInfo plus the automata
//     arena) — deterministic slice-capacity arithmetic, the number the CI
//     budget gate asserts on;
//   - heap: the live-heap delta around engine construction and the run,
//     the same double-GC HeapAlloc methodology the pre-refactor baseline
//     was measured with.
//
// The vs-old column divides the pre-refactor heap baseline by the new heap
// measure on the two anchor rows (ring and Erdős–Rényi at N=10⁵); the
// claim is a ≥4× reduction with bit-identical transcripts (the fp column
// matches the recorded pre-refactor fingerprints, asserted by the anchored
// equivalence tests).

// e18OldBytesPerNode is the pre-refactor live-heap bytes/node baseline at
// N=100000 (engine + automata, measured with e18HeapNow deltas on the
// commit before the plane refactor).
var e18OldBytesPerNode = map[graph.Family]float64{
	graph.FamilyRing:       2016.4,
	graph.FamilyErdosRenyi: 2446.9,
}

// e18Window is the fixed tick budget of every E18 run: long enough to pass
// start-up and reach steady-state traffic on every family, short enough
// that a million-node row stays in CI range. All runs end in ErrMaxTicks
// by design.
const e18Window = 4000

// e18Seed matches the anchored-fingerprint suite so the fp column is
// directly comparable.
const e18Seed = 9

// buildGraph builds the E18 and E15 windows' networks. It is a seam for the
// test binary, which builds each 10^5-node network once (anchored_test.go):
// the Erdős–Rényi one takes about a minute.
var buildGraph = graph.Build

// e18Row is one measured grid cell.
type e18Row struct {
	fam        graph.Family
	n, delta   int
	ticks      int
	acctBPN    float64
	heapBPN    float64
	engBytes   int64
	arenaBytes int64
	wall       time.Duration
	fp         string
}

// e18HeapNow returns live-heap bytes after forcing two collections —
// identical to the pre-refactor measurement, so deltas are comparable.
func e18HeapNow() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSBytes reads the process's high-water resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux). Monotone over the
// process lifetime, so the E18 table reports it once per row as "RSS so
// far" — the headline number is the final (largest-run) row.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// e18Run executes one windowed, fingerprinted run and measures it. The
// engine and automata are built fresh inside the heap bracket so the delta
// captures exactly the per-map state.
func e18Run(fam graph.Family, n int) (*e18Row, error) {
	g, err := buildGraph(fam, n, e18Seed)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	heapBefore := e18HeapNow()
	arena := gtd.NewArena(gtd.DefaultConfig())
	eng := sim.New(g, sim.Options{
		MaxTicks: e18Window,
		Workers:  maxWorkers(),
		Transcript: func(e sim.TranscriptEntry) {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(e.Tick))
			h.Write(buf[:])
			for _, m := range e.In {
				fmt.Fprintf(h, "%v|", m)
			}
			for _, m := range e.Out {
				fmt.Fprintf(h, "%v|", m)
			}
		},
	}, arena.Factory())
	start := time.Now()
	stats, err := eng.Run()
	wall := time.Since(start)
	if err != nil && !errors.Is(err, sim.ErrMaxTicks) {
		return nil, fmt.Errorf("%s N=%d: %w", fam, g.N(), err)
	}
	heapAfter := e18HeapNow()
	mem := eng.Mem()
	arenaBytes := arena.FootprintBytes()
	obs := stats.Observables()
	row := &e18Row{
		fam:        fam,
		n:          g.N(),
		delta:      g.Delta(),
		ticks:      obs.Ticks,
		acctBPN:    float64(mem.TotalBytes+arenaBytes) / float64(g.N()),
		heapBPN:    float64(heapAfter-heapBefore) / float64(g.N()),
		engBytes:   mem.TotalBytes,
		arenaBytes: arenaBytes,
		wall:       wall,
		fp: fmt.Sprintf("%x|t=%d|m=%d|s=-|a=%d|err=%v",
			h.Sum64(), obs.Ticks, obs.NonBlankMessages, obs.MaxActive, err),
	}
	eng.Close()
	runtime.KeepAlive(eng)
	return row, nil
}

// E18Scale charts bytes/node, wall time, and peak RSS for windowed maps of
// rings, tori, Erdős–Rényi, and Barabási–Albert graphs at N = 10⁴, 10⁵,
// and (at full scale) 2.5·10⁵ per family plus a 10⁶-node ring.
func E18Scale(scale Scale) (*Table, error) {
	type cell struct {
		fam graph.Family
		n   int
	}
	families := []graph.Family{
		graph.FamilyRing, graph.FamilyTorus,
		graph.FamilyErdosRenyi, graph.FamilyBarabasiAlbert,
	}
	var grid []cell
	for _, fam := range families {
		grid = append(grid, cell{fam, 10_000})
	}
	// The two 4×-claim anchor rows run at every scale.
	grid = append(grid, cell{graph.FamilyRing, 100_000}, cell{graph.FamilyErdosRenyi, 100_000})
	if scale == Full {
		grid = append(grid, cell{graph.FamilyTorus, 100_000}, cell{graph.FamilyBarabasiAlbert, 100_000})
		for _, fam := range families {
			grid = append(grid, cell{fam, 250_000})
		}
		grid = append(grid, cell{graph.FamilyRing, 1_000_000})
	}
	t := &Table{
		ID:    "E18",
		Title: "memory scaling of the packed-plane engine",
		Claim: "engine+automata memory is a small constant per node — ≥4× below the pre-refactor engine at N=1e5 — at bit-identical transcripts",
		Columns: []string{"family", "N", "δ", "ticks", "B/node(acct)", "B/node(heap)",
			"engine-MiB", "arena-MiB", "wall-ms", "peakRSS-MiB", "vs-old", "fp"},
	}
	for _, c := range grid {
		row, err := e18Run(c.fam, c.n)
		if err != nil {
			return nil, err
		}
		vsOld := "-"
		if old, ok := e18OldBytesPerNode[c.fam]; ok && row.n == 100_000 && row.heapBPN > 0 {
			vsOld = fmt.Sprintf("%.2fx", old/row.heapBPN)
		}
		t.Rows = append(t.Rows, []string{
			string(c.fam), fmtI(row.n), fmtI(row.delta), fmtI(row.ticks),
			fmtF(row.acctBPN), fmtF(row.heapBPN),
			fmtF(float64(row.engBytes) / (1 << 20)),
			fmtF(float64(row.arenaBytes) / (1 << 20)),
			fmtI64(row.wall.Milliseconds()),
			fmtF(float64(peakRSSBytes()) / (1 << 20)),
			vsOld, row.fp,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("every run is a fixed %d-tick window (ErrMaxTicks by design): large maps cannot terminate in CI budgets, and the window pins the transcript fingerprint across engine versions", e18Window),
		"B/node(acct) is the engine's own buffer accounting plus the automata arena; B/node(heap) is the double-GC live-heap delta around engine construction and the run — the pre-refactor baseline (ring 2016.4, er 2446.9 at N=1e5) was measured the same way",
		"peakRSS is the process high-water mark (VmHWM) and is monotone across rows; 0 when /proc is unavailable")
	return t, nil
}
