package sim

import (
	"testing"

	"topomap/internal/graph"
)

// countdown stays busy and silent for left ticks, reporting a hold of up to
// hold ticks between steps, so a run has stepped and idle ticks both.
type countdown struct{ left, hold int }

func (c *countdown) Busy() bool { return c.left > 0 }
func (c *countdown) Hold() int {
	if c.left <= 0 {
		return -1
	}
	return min(c.hold, c.left-1)
}
func (c *countdown) AdvanceHold(n int) { c.left -= n }
func (c *countdown) Step(*Ports) {
	if c.left > 0 {
		c.left--
	}
}

// TestBurstTelemetry pins the inert telemetry fields external callers still
// read: SeqTicks counts every tick (idle-jumped ones included), ParTicks
// stays 0, Bursts counts the one Run call that found the run unfinished and
// nothing else, and Observables zeroes all three.
func TestBurstTelemetry(t *testing.T) {
	build := func() *Engine {
		return New(graph.Ring(6), Options{MaxTicks: 1000, StopWhenQuiescent: true},
			func(info NodeInfo) Automaton { return &countdown{left: 20 + info.Index, hold: 4} })
	}
	eng := build()
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ticks == 0 || stats.SeqTicks != int64(stats.Ticks) || stats.ParTicks != 0 || stats.Bursts != 1 {
		t.Fatalf("Run telemetry: %+v, want SeqTicks = Ticks, ParTicks 0, Bursts 1", stats)
	}
	if again, _ := eng.Run(); again != stats {
		t.Fatalf("Run on a finished engine changed the statistics: %+v vs %+v", again, stats)
	}
	if obs := stats.Observables(); obs.SeqTicks != 0 || obs.ParTicks != 0 || obs.Bursts != 0 || obs.Ticks != stats.Ticks {
		t.Fatalf("Observables must zero only the telemetry: %+v", obs)
	}

	eng = build()
	for {
		more, err := eng.RunOne()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	if st := eng.Stats(); st.Observables() != stats.Observables() || st.SeqTicks != int64(st.Ticks) || st.Bursts != 0 {
		t.Fatalf("RunOne telemetry: %+v, want Run's observables with SeqTicks = Ticks and no bursts", st)
	}
}
