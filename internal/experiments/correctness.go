package experiments

import (
	"fmt"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
)

// E1Correctness reproduces Theorem 4.1: the root's computer accurately maps
// the network — across every family, multiple sizes, multiple seeds and
// roots, the reconstructed port-labelled topology is exactly the truth.
func E1Correctness(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Exactness of the reconstructed topology",
		Claim:   "Theorem 4.1: the computer at the root accurately maps the given directed network",
		Columns: []string{"family", "N", "D", "edges", "runs", "exact"},
	}
	sizes := map[graph.Family][]int{
		graph.FamilyRing:      {2, 8, 24},
		graph.FamilyBiRing:    {3, 9, 25},
		graph.FamilyLine:      {2, 10, 26},
		graph.FamilyTorus:     {9, 20, 36},
		graph.FamilyKautz:     {6, 12, 24},
		graph.FamilyDeBruijn:  {8, 16, 32},
		graph.FamilyHypercube: {4, 8, 16},
		graph.FamilyRandom:    {5, 14, 30},
		graph.FamilyTreeLoop:  {7, 15, 31},
	}
	if s == Full {
		sizes[graph.FamilyRing] = append(sizes[graph.FamilyRing], 48)
		sizes[graph.FamilyTorus] = append(sizes[graph.FamilyTorus], 64)
		sizes[graph.FamilyKautz] = append(sizes[graph.FamilyKautz], 48)
		sizes[graph.FamilyRandom] = append(sizes[graph.FamilyRandom], 60)
		sizes[graph.FamilyHypercube] = append(sizes[graph.FamilyHypercube], 32)
	}
	seeds := []int64{1, 2}
	if s == Full {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	// The whole sweep reuses one session: every run recycles the engine,
	// automata, and mapper of the previous one.
	sess := newSweepSession(gtd.DefaultConfig())
	for _, fam := range graph.AllFamilies() {
		for _, n := range sizes[fam] {
			runs, exact := 0, 0
			var g *graph.Graph
			for _, seed := range seeds {
				var err error
				g, err = graph.Build(fam, n, seed)
				if err != nil {
					return nil, err
				}
				root := int(seed) % g.N()
				r, err := runSessionGTD(sess, g, root)
				if err != nil {
					return nil, fmt.Errorf("%s n=%d seed=%d: %w", fam, n, seed, err)
				}
				runs++
				if r.exact {
					exact++
				}
			}
			t.Rows = append(t.Rows, []string{string(fam), fmtI(g.N()), fmtI(g.Diameter()),
				fmtI(g.NumEdges()), fmtI(runs), fmt.Sprintf("%d/%d", exact, runs)})
		}
	}
	t.Notes = append(t.Notes, "exact = port-preserving isomorphic to the truth anchored at the root")
	return t, nil
}

// E6Undisturbed reproduces Lemma 4.2: at the close of every RCA and BCA
// transaction the network is left completely undisturbed — no snake
// characters, markings, tokens or loop designations survive anywhere.
func E6Undisturbed(s Scale) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Network left undisturbed at every transaction close",
		Claim:   "Lemma 4.2: after step 5 the network holds no data construct created by the algorithm",
		Columns: []string{"family", "N", "transactions", "audits", "max residue", "violations"},
	}
	cases := [][2]interface{}{
		{graph.FamilyRing, 12}, {graph.FamilyTorus, 20},
		{graph.FamilyKautz, 12}, {graph.FamilyRandom, 18},
	}
	if s == Full {
		cases = append(cases, [2]interface{}{graph.FamilyTorus, 42},
			[2]interface{}{graph.FamilyKautz, 24}, [2]interface{}{graph.FamilyRandom, 40})
	}
	for _, c := range cases {
		fam := c[0].(graph.Family)
		n := c[1].(int)
		g, err := graph.Build(fam, n, 7)
		if err != nil {
			return nil, err
		}
		audit := newResidueAuditor(g)
		r, err := runGTD(g, 0, gtd.DefaultConfig(), audit.hook, []sim.Observer{audit})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{string(fam), fmtI(g.N()), fmtI(r.trans),
			fmtI(audit.audits), fmtI(audit.maxResidue), fmtI(audit.violations)})
	}
	t.Notes = append(t.Notes,
		"audited at the tick following each transaction close (RCA/BCA done events)",
		"residue counts snake chars, growing marks, loop designations, in-transit tokens network-wide")
	return t, nil
}

// residueAuditor audits network-wide residue one tick after each RCA/BCA
// completion event.
type residueAuditor struct {
	g          *graph.Graph
	pending    bool
	audits     int
	maxResidue int
	violations int
}

func newResidueAuditor(g *graph.Graph) *residueAuditor { return &residueAuditor{g: g} }

func (a *residueAuditor) hook(node int, kind gtd.EventKind, payload int) {
	if kind == gtd.EvRCADone || kind == gtd.EvBCADone {
		a.pending = true
	}
}

func (a *residueAuditor) AfterTick(tick int, e *sim.Engine) {
	if !a.pending {
		return
	}
	a.pending = false
	a.audits++
	total := 0
	for v := 0; v < a.g.N(); v++ {
		p := e.Automaton(v).(*gtd.Processor)
		r := p.ResidueReport()
		total += r.GrowMarks + r.GrowChars + r.DieActive + r.ConvBusy
		if r.LoopMarked {
			total++
		}
		if r.TokenInTransit {
			total++
		}
		if r.KillPending {
			total++
		}
		if r.RootClosed {
			total++
		}
		// The root's closure counts as residue only outside a
		// transaction; at a close event the root is open again, so
		// everything must be zero. One exception: the DFS token and
		// the continuation transaction may already be launching; the
		// launching initiator's own flood is excluded by auditing
		// only marks and residues, which a newborn transaction has
		// not created yet this tick at OTHER nodes. Residue at the
		// initiating node itself from the new flood is impossible
		// (initiators are deaf to their own snakes).
	}
	if total > a.maxResidue {
		a.maxResidue = total
	}
	if total != 0 {
		a.violations++
	}
}
