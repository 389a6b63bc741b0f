package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"topomap/internal/mapper"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// span is one timed call into a layer. Spans live in memory and are
// written out, one JSON object per line, when the traced run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	Op     int64  `json:"op"`     // the operation the span belongs to
}

type tracer struct {
	t0    time.Time
	spans []span
	op    int64
}

// newOp starts a new operation id; later spans belong to it.
func (t *tracer) newOp() { t.op++ }

func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) time.Duration {
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// spanTime is the duration of an ended span.
func (t *tracer) spanTime(i int32) time.Duration {
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers collects one workload's per-layer figures per cell: timed samples
// (a cell's figure is its fastest repetition and its median), counts (the
// mean per operation), differences between timings, and whole-workload
// totals.
type layers struct {
	wl      string
	cells   []string
	order   []string
	samples map[string][][]float64
	sums    map[string][][2]float64 // count metrics: per cell {sum, n}
	units   map[string]string
	derived map[string][]string // name → base, minus...
	totals  map[string]metric
}

func newLayers(wl string, cells []string) *layers {
	return &layers{wl: wl, cells: cells, samples: map[string][][]float64{},
		sums: map[string][][2]float64{}, units: map[string]string{},
		derived: map[string][]string{}, totals: map[string]metric{}}
}

func (l *layers) declare(name, unit string) {
	if _, ok := l.units[name]; !ok {
		l.units[name] = unit
		l.order = append(l.order, name)
	}
}

// sample records one repetition of a timing-like metric in cell i.
func (l *layers) sample(name, unit string, i int, v float64) {
	l.declare(name, unit)
	if l.samples[name] == nil {
		l.samples[name] = make([][]float64, len(l.cells))
	}
	l.samples[name][i] = append(l.samples[name][i], v)
}

func (l *layers) time(name string, i int, d time.Duration) {
	l.sample(name, "ms", i, float64(d.Nanoseconds())/1e6)
}

// count records one operation's value of a counter in cell i.
func (l *layers) count(name, unit string, i int, v float64) {
	l.declare(name, unit)
	if l.sums[name] == nil {
		l.sums[name] = make([][2]float64, len(l.cells))
	}
	l.sums[name][i][0] += v
	l.sums[name][i][1]++
}

// diff declares name = base − Σ minus, per cell, on the fastest
// repetitions and on the medians.
func (l *layers) diff(name, base string, minus ...string) {
	l.declare(name, "ms")
	l.derived[name] = append([]string{base}, minus...)
}

func (l *layers) total(name, unit string, v float64) {
	l.totals[name] = metric{v, unit}
}

// cellFigure is a metric's (fastest, median) figure in cell i.
func (l *layers) cellFigure(name string, i int) (best, p50 float64, ok bool) {
	if terms, isDiff := l.derived[name]; isDiff {
		for k, t := range terms {
			b, m, ok := l.cellFigure(t, i)
			if !ok {
				return 0, 0, false
			}
			if k > 0 {
				b, m = -b, -m
			}
			best, p50 = best+b, p50+m
		}
		return best, p50, true
	}
	if s := l.samples[name]; s != nil && len(s[i]) > 0 {
		return minOf(s[i]), median(s[i]), true
	}
	return 0, 0, false
}

// report prints every metric per cell and adds the workload's figures to
// out: for timings "<wl>.<name>.best" and ".p50", the geometric mean over
// the cells (the arithmetic mean for differences, which may be negative);
// for counts "<wl>.<name>", the mean over cells of the mean per operation.
func (l *layers) report(out map[string]metric) {
	for _, name := range l.order {
		key := l.wl + "." + name
		if sums := l.sums[name]; sums != nil {
			var per []float64
			for i, s := range sums {
				if s[1] > 0 {
					per = append(per, s[0]/s[1])
					fmt.Printf("layer %s %-28s %-34s %12.1f %s\n", l.wl, name, l.cells[i], s[0]/s[1], l.units[name])
				}
			}
			out[key] = metric{mean(per), l.units[name]}
			continue
		}
		var bests, p50s []float64
		for i := range l.cells {
			b, m, ok := l.cellFigure(name, i)
			if !ok {
				continue
			}
			bests, p50s = append(bests, b), append(p50s, m)
			fmt.Printf("layer %s %-28s %-34s best %9.3f  p50 %9.3f %s\n", l.wl, name, l.cells[i], b, m, l.units[name])
		}
		agg := geomean
		if _, isDiff := l.derived[name]; isDiff {
			agg = mean
		}
		out[key+".best"] = metric{agg(bests), l.units[name]}
		out[key+".p50"] = metric{agg(p50s), l.units[name]}
	}
	for _, name := range slices.Sorted(maps.Keys(l.totals)) {
		out[l.wl+"."+name] = l.totals[name]
		fmt.Printf("layer %s %-28s %-34s %12.1f %s\n", l.wl, name, "(workload)", l.totals[name].Value, l.totals[name].Unit)
	}
}

// tracedRun is one workload's traced pass.
type tracedRun func(cfg config, tr *tracer, o *outcome) (*layers, error)

// traceAll is the --trace 1 run: every workload in turn, each with half
// of the budget, spans recorded around every layer call the
// benchmark makes, and the per-layer metrics of all four reported. The
// spans are written to <outdir>/trace-<seed>.jsonl.
func traceAll(cfg config) (*report, error) {
	tr := &tracer{t0: time.Now()}
	part := cfg
	part.budget = cfg.budget / 2
	rep := &report{Metrics: map[string]metric{}}
	var wrong []string
	for _, run := range []tracedRun{traceMapSmall, traceMapLarge, traceServeRead, traceServeWrite} {
		o := &outcome{}
		l, err := run(part, tr, o)
		if err != nil {
			return nil, err
		}
		l.report(rep.Metrics)
		rep.Attempted += o.attempted
		rep.Failed += o.failed
		wrong = append(wrong, o.wrong...)
	}
	for _, w := range wrong {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %s\n", w)
	}
	rep.Correct = len(wrong) == 0
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("per-layer metric %s has no samples", k)
		}
	}
	path := filepath.Join(cfg.outDir, "trace-"+strconv.FormatInt(cfg.seed, 10)+".jsonl")
	if err := tr.dump(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return rep, nil
}

// transcript records the root's I/O transcript of an engine run, copying
// the engine-owned message slices, so the mapper can decode it afterwards
// as its own timed step.
type transcript struct {
	ticks []int
	lens  []int // In and Out length per entry
	msgs  []wire.Message
}

func (t *transcript) reset() {
	t.ticks, t.lens, t.msgs = t.ticks[:0], t.lens[:0], t.msgs[:0]
}

func (t *transcript) add(e sim.TranscriptEntry) {
	t.ticks = append(t.ticks, e.Tick)
	t.lens = append(t.lens, len(e.In), len(e.Out))
	t.msgs = append(t.msgs, e.In...)
	t.msgs = append(t.msgs, e.Out...)
}

// replay feeds the recorded transcript to m, in order.
func (t *transcript) replay(m *mapper.Mapper) {
	off := 0
	for i, tick := range t.ticks {
		nIn, nOut := t.lens[2*i], t.lens[2*i+1]
		m.Process(sim.TranscriptEntry{Tick: tick, In: t.msgs[off : off+nIn], Out: t.msgs[off+nIn : off+nIn+nOut]})
		off += nIn + nOut
	}
}
