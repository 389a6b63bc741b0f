package experiments

import (
	"fmt"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
)

// E17 measures the protocol under hostile conditions the paper's model rules
// out: irregular graph families (Erdős–Rényi, Barabási–Albert, AS tiers,
// chordal rings) crossed with injected faults (deterministic message loss at
// two rates, a fail-stop mid-map crash). The protocol is proven only for
// reliable synchronous networks, so the measured claim is about *failure
// behaviour*: every faulted run must end detectably — an exact map despite
// the faults (redundant traffic absorbed the loss), or a loud error
// (quiescent deadlock, tick-budget exhaustion, decoder failure) — and never
// with a silently wrong topology.

// e17Fault is one fault configuration of the E17 grid.
type e17Fault struct {
	name string
	plan func(n, seed int) *sim.FaultPlan
}

// e17Faults returns the fault grid: a fault-free control plus ≥2 nonzero
// configurations. The crash victim is mid-index and the crash lands well
// inside the mapping phase (clean runs at these sizes take thousands of
// ticks).
func e17Faults() []e17Fault {
	return []e17Fault{
		{"none", func(n, seed int) *sim.FaultPlan { return nil }},
		{"drop2e-3", func(n, seed int) *sim.FaultPlan {
			return &sim.FaultPlan{Seed: int64(seed), DropRate: 0.002}
		}},
		{"drop1e-2", func(n, seed int) *sim.FaultPlan {
			return &sim.FaultPlan{Seed: int64(seed), DropRate: 0.01}
		}},
		{"crash@300", func(n, seed int) *sim.FaultPlan {
			return &sim.FaultPlan{Crashes: []sim.Crash{{Node: n / 2, Tick: 300}}}
		}},
	}
}

// e17Outcome classifies one faulted run.
type e17Outcome int

const (
	e17Exact    e17Outcome = iota // terminated, reconstruction exact
	e17Detected                   // failed loudly: error, panic, or wrong-but-flagged decode
	e17Silent                     // terminated with a wrong map and no error — the failure mode the suite forbids
)

// e17Run executes one GTD run under a fault plan and classifies the outcome,
// converting panics (decoder or engine invariant violations under faults)
// into detected failures.
func e17Run(g *graph.Graph, plan *sim.FaultPlan, budget int) (outcome e17Outcome, ticks int, msgs, dropped int64) {
	m := mapper.New(g.Delta())
	eng := sim.New(g, sim.Options{
		MaxTicks:   budget,
		Faults:     plan,
		Transcript: m.Process,
	}, gtd.NewFactory(gtd.DefaultConfig()))
	outcome = e17Detected
	defer func() {
		if r := recover(); r != nil {
			outcome = e17Detected
		}
	}()
	stats, err := eng.Run()
	ticks, msgs, dropped = stats.Ticks, stats.NonBlankMessages, stats.Dropped
	if err != nil {
		return
	}
	mapped, err := m.Finish()
	if err != nil {
		return
	}
	if g.IsomorphicFrom(0, mapped, 0) {
		outcome = e17Exact
	} else {
		outcome = e17Silent
	}
	return
}

// E17Hostile charts mapping behaviour across the irregular families × fault
// grid: how often the protocol still maps exactly, how often it fails
// detectably, and — the safety property — that it never reports a wrong
// topology as success.
func E17Hostile(scale Scale) (*Table, error) {
	n, seeds, budget := 20, 4, 200_000
	if scale == Full {
		n, seeds, budget = 48, 8, 600_000
	}
	families := []graph.Family{
		graph.FamilyErdosRenyi, graph.FamilyBarabasiAlbert,
		graph.FamilyASTiers, graph.FamilyChordalRing,
	}
	t := &Table{
		ID:    "E17",
		Title: "irregular families under fault injection",
		Claim: "faulted runs end detectably (exact map or loud error), never silently wrong",
		Columns: []string{"family", "N", "fault", "runs", "exact", "detected", "silent",
			"avg-ticks", "avg-msgs", "avg-dropped"},
	}
	for _, fam := range families {
		for _, fc := range e17Faults() {
			var exact, detected, silent int
			var sumTicks, sumMsgs, sumDropped int64
			var nodes int
			for seed := 0; seed < seeds; seed++ {
				g, err := graph.Build(fam, n, int64(seed))
				if err != nil {
					return nil, err
				}
				nodes = g.N()
				out, ticks, msgs, dropped := e17Run(g, fc.plan(g.N(), seed), budget)
				switch out {
				case e17Exact:
					exact++
				case e17Detected:
					detected++
				case e17Silent:
					silent++
				}
				sumTicks += int64(ticks)
				sumMsgs += msgs
				sumDropped += dropped
			}
			t.Rows = append(t.Rows, []string{
				string(fam), fmtI(nodes), fc.name, fmtI(seeds),
				fmtI(exact), fmtI(detected), fmtI(silent),
				fmtI64(sumTicks / int64(seeds)), fmtI64(sumMsgs / int64(seeds)),
				fmtI64(sumDropped / int64(seeds)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"the protocol assumes a reliable network; a faulted run that cannot complete fails as a quiescent deadlock, a tick-budget error, or a decoder error",
		fmt.Sprintf("budget %d ticks per run; crash victim is node N/2 at tick 300 (well inside the mapping phase)", budget),
		"drop decisions are a pure hash of (seed, tick, edge): identical under Run and RunOne and under dense and sparse scheduling")
	return t, nil
}
