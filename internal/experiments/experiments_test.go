package experiments

import (
	"strconv"
	"strings"
	"testing"

	"topomap/internal/graph"
)

// TestAllExperimentsQuick runs every experiment at Quick scale: the
// regression suite for the full experiment harness. Invariant columns
// (exactness, violations, collisions) are asserted, so a protocol
// regression fails here even if the tables still render.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			run, ok := Get(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			table, err := run(Quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(table.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if table.String() == "" {
				t.Fatal("empty rendering")
			}
			checkInvariants(t, id, table)
		})
	}
}

func col(table *Table, name string) int {
	for i, c := range table.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

func checkInvariants(t *testing.T, id string, table *Table) {
	t.Helper()
	switch id {
	case "e1":
		c := col(table, "exact")
		for _, row := range table.Rows {
			parts := strings.Split(row[c], "/")
			if len(parts) != 2 || parts[0] != parts[1] {
				t.Errorf("E1 row not fully exact: %v", row)
			}
		}
	case "e2":
		// Per family, the ratio must not blow up between the smallest
		// and largest size (O(N·D) claim): allow 2× drift.
		c := col(table, "ticks/(N·D)")
		first := map[string]float64{}
		for _, row := range table.Rows {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("E2 ratio %q", row[c])
			}
			if f, ok := first[row[0]]; !ok {
				first[row[0]] = v
			} else if v > 2*f+10 {
				t.Errorf("E2 %s ratio drifting: %g after %g", row[0], v, f)
			}
		}
	case "e3", "e4":
		c := col(table, "ticks/loop")
		for _, row := range table.Rows {
			v, _ := strconv.ParseFloat(row[c], 64)
			if v < 5 || v > 20 {
				t.Errorf("%s per-hop constant out of band: %v", strings.ToUpper(id), row)
			}
		}
	case "e6":
		c := col(table, "violations")
		m := col(table, "max residue")
		for _, row := range table.Rows {
			if row[c] != "0" || row[m] != "0" {
				t.Errorf("E6 residue at close: %v", row)
			}
		}
	case "e7":
		c := col(table, "violations")
		s := col(table, "min slack")
		for _, row := range table.Rows {
			if row[c] != "0" {
				t.Errorf("E7 deadline violation: %v", row)
			}
			if v, _ := strconv.Atoi(row[s]); v < 0 {
				t.Errorf("E7 negative slack: %v", row)
			}
		}
	case "e10":
		// The paper-default variant must be fully exact with no failures.
		r, x, f := col(table, "runs"), col(table, "exact"), col(table, "failures")
		for _, row := range table.Rows {
			if strings.HasPrefix(row[0], "paper defaults") {
				if row[r] != row[x] || row[f] != "0" {
					t.Errorf("E10 default variant not clean: %v", row)
				}
			}
		}
	case "e12":
		c := col(table, "collisions")
		for _, row := range table.Rows {
			if row[c] != "0" {
				t.Errorf("E12 transcript collision: %v", row)
			}
		}
	case "e16":
		// Every row — anchors and served sweep — must be bit-identical to
		// direct Map; after warm-up every serve is warm; and the PR's
		// acceptance bound holds: served allocs/run within 2× of the
		// E13-steady batch anchor measured in the same process.
		mode, ident := col(table, "mode"), col(table, "identical")
		warm, alloc := col(table, "warm%"), col(table, "allocs/run")
		cpool, ccli := col(table, "pool"), col(table, "clients")
		batchAllocs := -1.0
		for _, row := range table.Rows {
			if row[ident] != "yes" {
				t.Errorf("E16 served result diverges: %v", row)
			}
			if row[mode] == "batch (E13)" {
				batchAllocs, _ = strconv.ParseFloat(row[alloc], 64)
			}
		}
		if batchAllocs <= 0 {
			t.Fatal("E16 missing the batch anchor row")
		}
		servedRows := 0
		for _, row := range table.Rows {
			if row[mode] != "served" {
				continue
			}
			servedRows++
			if v, _ := strconv.ParseFloat(row[warm], 64); v < 100 {
				t.Errorf("E16 cold serve after warm-up: %v", row)
			}
			if v, _ := strconv.ParseFloat(row[alloc], 64); v > 2*batchAllocs {
				t.Errorf("E16 allocs/run %v over 2× the E13 steady state (%v): %v", v, batchAllocs, row)
			}
			p, _ := strconv.Atoi(row[cpool])
			c, _ := strconv.Atoi(row[ccli])
			if c < p {
				t.Errorf("E16 served row with fewer clients than pool: %v", row)
			}
		}
		if servedRows == 0 {
			t.Error("E16 has no served rows")
		}
	case "e17":
		// The fault-injection safety claim: no run ever ends silently
		// wrong; fault-free control rows map exactly; the outcome split
		// always accounts for every run; and the grid covers all four
		// irregular families with at least two distinct nonzero fault
		// configurations each.
		fam, fault := col(table, "family"), col(table, "fault")
		runs, exact := col(table, "runs"), col(table, "exact")
		detected, silent := col(table, "detected"), col(table, "silent")
		faultsPerFam := map[string]map[string]bool{}
		for _, row := range table.Rows {
			if row[silent] != "0" {
				t.Errorf("E17 silently wrong run: %v", row)
			}
			r, _ := strconv.Atoi(row[runs])
			x, _ := strconv.Atoi(row[exact])
			d, _ := strconv.Atoi(row[detected])
			if x+d != r {
				t.Errorf("E17 outcomes do not sum to runs: %v", row)
			}
			if row[fault] == "none" && x != r {
				t.Errorf("E17 fault-free control not fully exact: %v", row)
			}
			if row[fault] != "none" {
				if faultsPerFam[row[fam]] == nil {
					faultsPerFam[row[fam]] = map[string]bool{}
				}
				faultsPerFam[row[fam]][row[fault]] = true
			}
		}
		for _, f := range []string{"er", "ba", "astier", "chordal"} {
			if len(faultsPerFam[f]) < 2 {
				t.Errorf("E17 family %s has %d nonzero fault configs, want >= 2", f, len(faultsPerFam[f]))
			}
		}
	case "e18":
		// The memory-refactor acceptance gate: at N=100000 the engine's
		// own accounting must sit ≥4× below the pre-refactor heap
		// baseline, and the windowed transcript fingerprint must equal
		// the pre-refactor anchor — memory went down, behaviour did not
		// move.
		fam, n := col(table, "family"), col(table, "N")
		acct, fp := col(table, "B/node(acct)"), col(table, "fp")
		budgets := map[string]struct {
			maxBPN float64
			anchor string
		}{
			"ring": {e18OldBytesPerNode[graph.FamilyRing] / 4, anchorRing100k},
			"er":   {e18OldBytesPerNode[graph.FamilyErdosRenyi] / 4, anchorER100k},
		}
		checked := 0
		for _, row := range table.Rows {
			b, ok := budgets[row[fam]]
			if !ok || row[n] != "100000" {
				continue
			}
			checked++
			if v, _ := strconv.ParseFloat(row[acct], 64); v <= 0 || v > b.maxBPN {
				t.Errorf("E18 %s N=1e5 bytes/node %s over the 4x budget %.1f", row[fam], row[acct], b.maxBPN)
			}
			if row[fp] != b.anchor {
				t.Errorf("E18 %s N=1e5 fingerprint diverged from the pre-refactor anchor\n got  %s\n want %s",
					row[fam], row[fp], b.anchor)
			}
		}
		if checked != 2 {
			t.Errorf("E18 checked %d of the 2 required N=1e5 anchor rows", checked)
		}
	case "e19":
		// The cached-serving acceptance gate: every result bit-identical,
		// engine runs only on non-hit non-shared requests, and the headline
		// hit path ≥100× under the cold-map p50.
		mode, ident := col(table, "mode"), col(table, "identical")
		reqs, runs := col(table, "requests"), col(table, "runs")
		hitPct, shared := col(table, "hit%"), col(table, "shared")
		speedup, collapse := col(table, "speedup"), col(table, "collapse")
		headlines := 0
		for _, row := range table.Rows {
			if row[ident] != "yes" {
				t.Errorf("E19 cached result diverges: %v", row)
			}
			rq, _ := strconv.Atoi(row[reqs])
			rn, _ := strconv.Atoi(row[runs])
			sh, _ := strconv.Atoi(row[shared])
			hp, _ := strconv.ParseFloat(row[hitPct], 64)
			hits := int(hp*float64(rq)/100 + 0.5)
			if rn != rq-hits-sh {
				t.Errorf("E19 runs %d != requests %d - hits %d - shared %d: %v", rn, rq, hits, sh, row)
			}
			if rn >= rq {
				t.Errorf("E19 cache absorbed nothing: %v", row)
			}
			if v, _ := strconv.ParseFloat(row[collapse], 64); v < 1 && rn > 0 {
				t.Errorf("E19 collapse factor under 1: %v", row)
			}
			if strings.HasPrefix(row[mode], "headline") {
				headlines++
				if v, _ := strconv.ParseFloat(row[speedup], 64); v < 100 {
					t.Errorf("E19 headline speedup %.1f < 100×: %v", v, row)
				}
			}
		}
		if headlines != 1 {
			t.Errorf("E19 has %d headline rows, want 1", headlines)
		}
	case "e20":
		// The wire-codec acceptance gate, at CI-robust thresholds: every
		// round-trip and identity check clean, binary decode ≥2× text on
		// every decode row (the Full-scale N=1e5 bound of ≥5× is checked by
		// the benchmark suite), the fast-path serve row ≥1.5× the JSON
		// pipeline with single-digit allocations per hit.
		mode, ratio := col(table, "mode"), col(table, "ratio")
		allocs, ok := col(table, "allocs/hit"), col(table, "ok")
		serves := 0
		for _, row := range table.Rows {
			if row[ok] != "yes" {
				t.Errorf("E20 round-trip/identity failure: %v", row)
			}
			v, err := strconv.ParseFloat(row[ratio], 64)
			if err != nil {
				t.Fatalf("E20 ratio %q", row[ratio])
			}
			switch row[mode] {
			case "decode":
				if v < 2 {
					t.Errorf("E20 binary decode only %.2f× text: %v", v, row)
				}
			case "serve":
				serves++
				if v < 1.5 {
					t.Errorf("E20 fast-path serve only %.2f× the JSON pipeline: %v", v, row)
				}
				if a, _ := strconv.ParseFloat(row[allocs], 64); a > 10 {
					t.Errorf("E20 fast path allocates %.1f per hit: %v", a, row)
				}
			}
		}
		if serves != 1 {
			t.Errorf("E20 has %d serve rows, want 1", serves)
		}
	case "e21":
		// The incremental-remap acceptance gate: every patched result
		// bit-equal to its full-map reference, every non-fallback row ≥10×
		// under the full remap (the ring-10000 single-edge row is the PR's
		// acceptance bound), and the over-threshold deltas actually falling
		// back.
		fam, n, dl := col(table, "family"), col(table, "n"), col(table, "delta")
		path, speedup, eq := col(table, "path"), col(table, "speedup"), col(table, "equal")
		fallbacks, headline := 0, false
		for _, row := range table.Rows {
			if row[eq] != "yes" {
				t.Errorf("E21 patched result diverges from the full map: %v", row)
			}
			if row[path] == "fallback" {
				fallbacks++
				continue
			}
			v, err := strconv.ParseFloat(row[speedup], 64)
			if err != nil || v < 10 {
				t.Errorf("E21 speedup %q < 10×: %v", row[speedup], row)
			}
			if row[fam] == "ring" && row[n] == "10000" && row[dl] == "ins×1" {
				headline = true
			}
		}
		if fallbacks == 0 {
			t.Error("E21 never took the fallback path: the threshold is untested")
		}
		if !headline {
			t.Error("E21 missing the ring-10000 single-edge acceptance row")
		}
	case "e14":
		// Dense and sparse scheduling must be observationally identical
		// on every row, and at N=1024 the sparse scheduler must examine
		// ≥10× fewer nodes per tick than the dense sweep (the PR's
		// acceptance criterion).
		id, n, r := col(table, "identical"), col(table, "N"), col(table, "it ratio")
		for _, row := range table.Rows {
			if row[id] != "yes" {
				t.Errorf("E14 dense/sparse divergence: %v", row)
			}
			if row[n] == "1024" {
				if v, _ := strconv.ParseFloat(row[r], 64); v < 10 {
					t.Errorf("E14 N=1024 iteration ratio %.1f < 10: %v", v, row)
				}
			}
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("e99"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID: "X", Title: "demo", Claim: "c",
		Columns: []string{"a", "bee"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	s := tb.String()
	for _, want := range []string{"demo", "333", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}
