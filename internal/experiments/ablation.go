package experiments

import (
	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
)

// E10SpeedAblation probes the paper's speed assignment (§2.1): snakes and
// the FORWARD/BACK/ACK loop tokens at speed-1, KILL and UNMARK at speed-3.
// Each variant runs the full protocol on a batch of graphs; we record
// whether the map stayed exact, whether the Lemma 4.2 cleanup deadline was
// ever violated, and the worst-case slack. Slowing the KILL token to
// speed-1 removes the 3× catch-up advantage the cleanup argument rests on;
// speeding snakes to speed-3 does the same from the other side.
func E10SpeedAblation(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Speed-assignment ablation",
		Claim:   "§2.1/Lemma 4.2: KILL must outrun the snakes (speed-3 vs speed-1) for cleanup to meet its deadline",
		Columns: []string{"variant", "runs", "exact", "failures", "deadline violations", "min slack"},
	}
	variants := []struct {
		name string
		cfg  gtd.Config
	}{
		{"paper defaults (kill ×3)", gtd.DefaultConfig()},
		{"kill slowed to speed-1", func() gtd.Config {
			c := gtd.DefaultConfig()
			c.KillDelay = 2
			return c
		}()},
		{"snakes sped to speed-3", func() gtd.Config {
			c := gtd.DefaultConfig()
			c.SnakeDelay = 0
			return c
		}()},
		{"loop token sped to speed-3", func() gtd.Config {
			c := gtd.DefaultConfig()
			c.LoopDelay = 0
			return c
		}()},
	}
	type c struct {
		fam  graph.Family
		n    int
		seed int64
	}
	cases := []c{
		{graph.FamilyTorus, 20, 3}, {graph.FamilyKautz, 12, 3},
		{graph.FamilyRandom, 16, 4}, {graph.FamilyRing, 10, 1},
	}
	if s == Full {
		cases = append(cases, c{graph.FamilyTorus, 42, 5}, c{graph.FamilyRandom, 30, 9},
			c{graph.FamilyBiRing, 15, 2}, c{graph.FamilyKautz, 24, 8})
	}
	for _, v := range variants {
		runs, exact, failures, viol := 0, 0, 0, 0
		minSlack := 1 << 30
		for _, cs := range cases {
			g, err := graph.Build(cs.fam, cs.n, cs.seed)
			if err != nil {
				return nil, err
			}
			runs++
			res := runAblated(g, v.cfg)
			if res.failed {
				failures++
				continue
			}
			if res.exact {
				exact++
			}
			viol += res.violations
			if res.minSlack < minSlack {
				minSlack = res.minSlack
			}
		}
		slackStr := "-"
		if minSlack != 1<<30 {
			slackStr = fmtI(minSlack)
		}
		t.Rows = append(t.Rows, []string{v.name, fmtI(runs), fmtI(exact),
			fmtI(failures), fmtI(viol), slackStr})
	}
	t.Notes = append(t.Notes,
		"failures = stuck runs, protocol assertion panics, or undecodable transcripts",
		"violations = growing residue alive past the Lemma 4.2 deadline (cleanup too slow)")
	return t, nil
}

type ablationRun struct {
	failed     bool
	exact      bool
	violations int
	minSlack   int
}

// runAblated executes one protocol run under a (possibly broken) speed
// configuration; assertion panics are converted into failure records.
func runAblated(g *graph.Graph, cfg gtd.Config) (res ablationRun) {
	defer func() {
		if r := recover(); r != nil {
			res.failed = true
		}
	}()
	sl := newSlackMeter(g)
	r, err := runGTDBudget(g, 0, cfg, sl.hook, []sim.Observer{sl}, 600_000)
	if err != nil {
		return ablationRun{failed: true}
	}
	ms := sl.minSlack
	if ms == 1<<30 {
		ms = 0
	}
	return ablationRun{exact: r.exact, violations: sl.violations, minSlack: ms}
}
