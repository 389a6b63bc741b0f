package gtd_test

import (
	"fmt"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// TestCanonicalPathStability verifies the determinism claim the mapper's
// node-identity scheme rests on (§3: "the protocol ... always produces the
// same canonical shortest path from any given processor A to the root and
// back again"): repeated standalone RCAs from the same node, interleaved
// with RCAs from other nodes, report identical paths every time.
func TestCanonicalPathStability(t *testing.T) {
	g := graph.Random(11, 3, 24, 13)
	paths := map[int]string{}
	record := func(from int) string {
		cfg := gtd.DefaultConfig()
		cfg.PassiveRoot = true
		rec := struct {
			ig, id string
		}{}
		eng := sim.New(g, sim.Options{
			Root:              0,
			MaxTicks:          1_000_000,
			StopWhenQuiescent: true,
			Transcript: func(e sim.TranscriptEntry) {
				for p := 1; p <= len(e.In); p++ {
					m := e.In[p-1]
					igIdx := wire.GrowIndex(wire.KindIG)
					if m.HasGrowKind(igIdx) {
						rec.ig += fmt.Sprintf("%v@%d;", m.Grow[igIdx], p)
					}
					idIdx := wire.DieIndex(wire.KindID)
					if m.HasDieKind(idIdx) {
						rec.id += fmt.Sprintf("%v@%d;", m.Die[idIdx], p)
					}
				}
			},
		}, gtd.NewFactory(cfg))
		err := eng.Automaton(from).(*gtd.Processor).StartRCA(wire.LoopToken{Type: wire.LoopBack})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.ig + "|" + rec.id
	}
	// Two passes over every node; the second pass must reproduce the
	// first exactly.
	for pass := 0; pass < 2; pass++ {
		for from := 1; from < g.N(); from++ {
			sig := record(from)
			if prev, ok := paths[from]; ok && prev != sig {
				t.Fatalf("node %d: canonical paths unstable:\n first: %s\n later: %s", from, prev, sig)
			}
			paths[from] = sig
		}
	}
	// Distinct nodes must have distinct root→A signatures (the mapper's
	// identity premise).
	seen := map[string]int{}
	for from, sig := range paths {
		if other, dup := seen[sig]; dup {
			t.Fatalf("nodes %d and %d share a canonical signature", from, other)
		}
		seen[sig] = from
	}
}

// badEmitter writes an out-of-range port into a snake character; the
// engine's Validate mode must catch it.
type badEmitter struct {
	info sim.NodeInfo
	fire bool
}

func (b *badEmitter) Busy() bool { return b.fire }

func (b *badEmitter) Step(io *sim.Ports) {
	if b.fire {
		b.fire = false
		io.SetGrow(1, wire.GrowIndex(wire.KindIG),
			wire.PackGrowChar(wire.GrowChar{Kind: wire.KindIG, Part: wire.Head, Out: 9, In: 1}))
	}
}

func TestEngineValidateCatchesModelViolation(t *testing.T) {
	g := graph.Ring(3)
	eng := sim.New(g, sim.Options{Validate: true, MaxTicks: 100, StopWhenQuiescent: true},
		func(info sim.NodeInfo) sim.Automaton {
			return &badEmitter{info: info, fire: info.Root}
		})
	defer func() {
		if recover() == nil {
			t.Fatal("validate mode must reject an out-of-range port")
		}
	}()
	_, _ = eng.Run()
}

// TestMessageComplexity pins the message complexity to O(E·D) shape: total
// non-blank symbols per run divided by E·D stays bounded across sizes
// (each of the Θ(E) transactions floods O(E) wires for O(D)... the flood
// cost per transaction is bounded by c·E·const, so messages/(E²) is the
// safer bounded ratio; we check both stay sane on a ladder).
func TestMessageComplexity(t *testing.T) {
	var prev float64
	for _, n := range []int{12, 24, 48} {
		g, err := graph.Build(graph.FamilyTorus, n, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, stats := runGTD(t, g, 0)
		e := float64(g.NumEdges())
		ratio := float64(stats.NonBlankMessages) / (e * e)
		if prev > 0 && ratio > prev*1.6 {
			t.Fatalf("messages/(E²) exploding: %.2f after %.2f", ratio, prev)
		}
		prev = ratio
	}
}
