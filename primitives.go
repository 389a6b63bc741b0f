package topomap

import (
	"fmt"

	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// BCAResult is the outcome of a standalone Backwards Communication
// Algorithm transaction (SendBackward).
type BCAResult struct {
	// Target is the node that received the payload: the processor whose
	// out-port is wired to the initiator's designated in-port.
	Target int
	// Ticks is the number of global clock ticks until the network
	// returned to quiescence (transaction fully closed).
	Ticks int
	// Messages is the number of non-blank symbols delivered.
	Messages int64
}

// SendBackward runs the Backwards Communication Algorithm (§4.1, after
// Ostrovsky and Wilkerson) as a standalone transaction: processor from
// sends payload *backwards* through the directed edge arriving at its
// in-port inPort (1-based). The function returns once the network is
// quiescent again; per Lemma 4.2's analogue the graph is left completely
// undisturbed, which the protocol tests verify.
//
// The running time is O(D) global clock ticks (experiment E4 measures it).
func SendBackward(g *Graph, from, inPort int, payload Payload, opts Options) (*BCAResult, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topomap: %w", err)
	}
	if from < 0 || from >= g.N() {
		return nil, fmt.Errorf("topomap: node %d out of range", from)
	}
	src, ok := g.InEndpoint(from, inPort)
	if !ok {
		return nil, fmt.Errorf("topomap: in-port %d of node %d is not wired", inPort, from)
	}
	cfg := opts.config()
	cfg.PassiveRoot = true
	eng := sim.New(g, sim.Options{
		Root:              opts.Root,
		MaxTicks:          opts.MaxTicks,
		Validate:          opts.Validate,
		StopWhenQuiescent: true,
	}, gtd.NewFactory(cfg))
	if err := eng.Automaton(from).(*gtd.Processor).StartBCA(inPort, payload); err != nil {
		return nil, err
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("topomap: BCA run failed: %w", err)
	}
	target := eng.Automaton(src.Node).(*gtd.Processor)
	got, n := target.DeliveredPayload()
	if n != 1 || got != payload {
		return nil, fmt.Errorf("topomap: BCA payload not delivered (target %d got %v ×%d)", src.Node, got, n)
	}
	return &BCAResult{Target: src.Node, Ticks: stats.Ticks, Messages: stats.NonBlankMessages}, nil
}

// PathEdge is one hop of a canonical path: the sender's out-port and the
// receiver's in-port.
type PathEdge = mapper.PathEdge

// RCAResult is the outcome of a standalone Root Communication Algorithm
// transaction (SignalRoot).
type RCAResult struct {
	// PathToRoot is the canonical shortest path from the signalling
	// processor to the root, as read by the root's master computer from
	// the IG snake (Lemma 4.1).
	PathToRoot []PathEdge
	// PathFromRoot is the canonical shortest path from the root back to
	// the signalling processor, read from the ID snake.
	PathFromRoot []PathEdge
	// Forward reports the loop-token type observed at the root (true for
	// FORWARD, false for BACK).
	Forward bool
	// Ticks is the number of ticks until quiescence.
	Ticks int
	// Messages is the number of non-blank symbols delivered.
	Messages int64
}

// SignalRoot runs the Root Communication Algorithm (§4.2) as a standalone
// transaction: processor from sends one of the constant-size signals to the
// root (a FORWARD(i, j) token if forward is true, BACK otherwise), and the
// root's master computer reconstructs the canonical shortest paths between
// from and the root. The running time is O(D) (Lemma 4.3; experiment E3).
func SignalRoot(g *Graph, from int, forward bool, out, in int, opts Options) (*RCAResult, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topomap: %w", err)
	}
	if from < 0 || from >= g.N() || from == opts.Root {
		return nil, fmt.Errorf("topomap: signalling node %d invalid (root %d)", from, opts.Root)
	}
	tok := wire.LoopToken{Type: wire.LoopBack}
	if forward {
		tok = wire.LoopToken{Type: wire.LoopForward, Out: uint8(out), In: uint8(in)}
	}
	cfg := opts.config()
	cfg.PassiveRoot = true
	rec := &rcaRecorder{delta: g.Delta()}
	eng := sim.New(g, sim.Options{
		Root:              opts.Root,
		MaxTicks:          opts.MaxTicks,
		Validate:          opts.Validate,
		StopWhenQuiescent: true,
		Transcript:        rec.process,
	}, gtd.NewFactory(cfg))
	if err := eng.Automaton(from).(*gtd.Processor).StartRCA(tok); err != nil {
		return nil, err
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("topomap: RCA run failed: %w", err)
	}
	if rec.err != nil {
		return nil, fmt.Errorf("topomap: root transcript decoding failed: %w", rec.err)
	}
	if !rec.done {
		return nil, fmt.Errorf("topomap: RCA did not complete at the root")
	}
	return &RCAResult{
		PathToRoot:   rec.igPath,
		PathFromRoot: rec.idPath,
		Forward:      rec.forward,
		Ticks:        stats.Ticks,
		Messages:     stats.NonBlankMessages,
	}, nil
}

// rcaRecorder decodes a single RCA transaction from the root transcript.
// It is a restricted version of the full GTD mapper.
type rcaRecorder struct {
	delta   int
	phase   int // 0 idle, 1 reading IG, 2 wait ID, 3 reading ID, 4 wait token, 5 wait unmark, 6 done
	lock    uint8
	igPath  []PathEdge
	idPath  []PathEdge
	forward bool
	done    bool
	err     error
}

func (r *rcaRecorder) process(e sim.TranscriptEntry) {
	if r.err != nil || r.done {
		return
	}
	for port := 1; port <= len(e.In); port++ {
		m := &e.In[port-1]
		if m.IsBlank() {
			continue
		}
		igIdx := wire.GrowIndex(wire.KindIG)
		if m.HasGrowKind(igIdx) {
			c := m.Grow[igIdx]
			if c.Part != wire.Tail && c.In == wire.Star {
				c.In = uint8(port)
			}
			switch {
			case r.phase == 0 && c.Part == wire.Head:
				r.phase = 1
				r.lock = uint8(port)
				r.igPath = append(r.igPath, PathEdge{Out: c.Out, In: c.In})
			case r.phase == 1 && uint8(port) == r.lock:
				if c.Part == wire.Tail {
					r.phase = 2
				} else {
					r.igPath = append(r.igPath, PathEdge{Out: c.Out, In: c.In})
				}
			}
		}
		idIdx := wire.DieIndex(wire.KindID)
		if m.HasDieKind(idIdx) {
			c := m.Die[idIdx]
			if c.Part != wire.Tail && c.In == wire.Star {
				c.In = uint8(port)
			}
			switch {
			case r.phase == 2 && c.Part == wire.Head:
				r.phase = 3
				r.idPath = append(r.idPath, PathEdge{Out: c.Out, In: c.In})
			case r.phase == 3:
				if c.Part == wire.Tail {
					r.phase = 4
				} else {
					r.idPath = append(r.idPath, PathEdge{Out: c.Out, In: c.In})
				}
			}
		}
		if m.HasLoop() {
			switch {
			case r.phase == 4 && (m.Loop.Type == wire.LoopForward || m.Loop.Type == wire.LoopBack):
				r.forward = m.Loop.Type == wire.LoopForward
				r.phase = 5
			case r.phase == 5 && m.Loop.Type == wire.LoopUnmark:
				r.phase = 6
				r.done = true
			}
		}
	}
}

// CanonicalPath returns the path the protocol's growing snakes would carve
// from src to dst (Definition 4.1), computed analytically on the graph.
// SignalRoot's reported paths match it; the equivalence is tested.
func CanonicalPath(g *Graph, src, dst int) []Edge {
	return g.CanonicalPath(src, dst)
}
