package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// cells holds the repetitions of every input of a workload, in milliseconds.
// A cell's figure is its fastest repetition: on a shared host the median
// moves with the host's slow phases while the minimum holds still (README,
// "Noise").
type cells struct {
	names   []string
	samples [][]float64
}

func newCells(names []string) *cells {
	return &cells{names: names, samples: make([][]float64, len(names))}
}

func (c *cells) add(i int, d time.Duration) {
	c.samples[i] = append(c.samples[i], float64(d.Nanoseconds())/1e6)
}

func (c *cells) best(i int) float64 { return minOf(c.samples[i]) }
func (c *cells) p50(i int) float64  { return median(c.samples[i]) }

// geoBest is the geometric mean over cells of each cell's fastest
// repetition: every input weighs the same whatever its size.
func (c *cells) geoBest() float64 {
	xs := make([]float64, len(c.names))
	for i := range c.names {
		xs[i] = c.best(i)
	}
	return geomean(xs)
}

// print writes one line per cell: fastest repetition, median, count.
func (c *cells) print() {
	for i, name := range c.names {
		fmt.Printf("cell %-34s best %9.3f ms  p50 %9.3f ms  n=%d\n",
			name, c.best(i), c.p50(i), len(c.samples[i]))
	}
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minRounds is the fewest whole rounds a measured loop runs, however short
// its budget.
const minRounds = 3

// loop runs whole rounds until budget has passed and at least minRounds
// rounds are done. Every round is the same list of operations, so the
// share of failed operations does not depend on how many rounds fit.
func loop(budget time.Duration, round func(r int) error) error {
	deadline := time.Now().Add(budget)
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		if err := round(r); err != nil {
			return err
		}
	}
	return nil
}

// timeSetups runs build at least setupReps times, and again until the
// repetitions add up to setupFloor, so that a set-up of a few milliseconds
// still yields a steady median. Each repetition starts from a collected
// heap, outside the clock. It returns each duration; the last build's
// state is the one the caller keeps.
func timeSetups(build func() error) ([]time.Duration, error) {
	var ds []time.Duration
	var total time.Duration
	for len(ds) < setupReps || total < setupFloor {
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		ds = append(ds, d)
		total += d
	}
	return ds, nil
}

// peakRSSMiB reads VmHWM, the peak resident set, of a process ("self" or
// a pid) from procfs.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// subSeed derives an independent seed for one purpose from the workload
// seed (splitmix64), so adding an input never shifts the others.
func subSeed(seed int64, purpose uint64) int64 {
	z := uint64(seed) + purpose*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
