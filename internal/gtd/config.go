// Package gtd implements the paper's protocols as a single finite-state
// processor automaton: the Global Topology Determination algorithm (§3)
// together with its auxiliary protocols, the Root Communication Algorithm
// (§4.2) and the Backwards Communication Algorithm (§4.1, after Ostrovsky
// and Wilkerson), built on the snake and token machinery.
//
// Every processor runs the same automaton; only the root flag (delivered by
// the "outside source" that initiates the protocol) differs. All per-node
// state is constant-bounded given the degree bound δ: a fixed set of port
// numbers, flags, phase enumerations and bounded character pipelines.
package gtd

import (
	"topomap/internal/snake"
	"topomap/internal/wire"
)

// Config sets protocol parameters. The zero value is NOT usable; call
// DefaultConfig. Speeds are expressed as extra hold ticks per hop (see
// snake.Speed1Delay/Speed3Delay); non-default values are used only by the
// speed-ablation experiment E10.
type Config struct {
	// SnakeDelay is the per-hop hold of all snake characters (paper: all
	// snakes are speed-1, delay 2). Bounded by snake.MaxDelay — the packed
	// pipelines size their buffers for it.
	SnakeDelay int
	// LoopDelay is the per-hop hold of the FORWARD/BACK/ACK loop tokens
	// (paper: speed-1, delay 2).
	LoopDelay int
	// UnmarkDelay is the per-hop hold of the UNMARK token (paper:
	// speed-3, delay 0).
	UnmarkDelay int
	// KillDelay is the per-hop hold of the KILL token (paper: speed-3,
	// delay 0).
	KillDelay int

	// PassiveRoot keeps the root from launching the depth-first search:
	// it still serves the root side of RCAs. Used when the network runs
	// standalone RCA/BCA transactions instead of the full GTD protocol.
	PassiveRoot bool

	// Hooks receive instrumentation events; they are outside the model
	// (the processors do not depend on them) and may be nil.
	Hooks Hooks
}

// DefaultConfig returns the paper's speed assignment.
func DefaultConfig() Config {
	return Config{
		SnakeDelay:  snake.Speed1Delay,
		LoopDelay:   snake.Speed1Delay,
		UnmarkDelay: snake.Speed3Delay,
		KillDelay:   snake.Speed3Delay,
	}
}

// EventKind enumerates instrumentation events.
type EventKind uint8

// Instrumentation events emitted via Config.Hooks.
const (
	// EvRCAStart fires when a processor begins an RCA (IG flood).
	EvRCAStart EventKind = iota
	// EvRCADone fires when the RCA's UNMARK token returns to its
	// initiator and the transaction closes.
	EvRCADone
	// EvBCAStart fires when a processor begins a BCA (BG flood).
	EvBCAStart
	// EvBCADone fires when the BCA target absorbs the UNMARK token and
	// the transaction closes.
	EvBCADone
	// EvBCADelivered fires at the BCA target when the flagged character
	// (the payload) is consumed.
	EvBCADelivered
	// EvLoopReturn fires when the RCA's FORWARD/BACK token or the BCA's
	// ACK token returns to its creator — the paper's Lemma 4.2 reference
	// point after which, one tick later, no growing residue may remain.
	EvLoopReturn
	// EvDFSSent fires when a processor emits the DFS token forward.
	EvDFSSent
	// EvDFSForwardArrival fires when the DFS token arrives through a
	// forward edge.
	EvDFSForwardArrival
	// EvTerminated fires when the root enters its terminal state.
	EvTerminated
)

// Hooks is the instrumentation callback: node is the engine index of the
// processor, payload is event-specific (loop token type for EvLoopReturn,
// BCA payload for EvBCADelivered, 0 otherwise).
//
// Hooks fire from inside processor steps, on the goroutine running the
// engine. Within one tick the engine steps processors in ascending node
// order, so events arrive in ascending node order, and a node's own events
// in the order its step raises them: the event sequence is deterministic,
// identical on every run of the same graph and configuration. A callback
// needs no synchronisation unless engines running concurrently share it.
type Hooks func(node int, kind EventKind, payload int)

func (c *Config) hook(node int, kind EventKind, payload int) {
	if c.Hooks != nil {
		c.Hooks(node, kind, payload)
	}
}

// loopSpeedDelay returns the per-hop hold of a loop token type under this
// configuration.
func (c *Config) loopSpeedDelay(t wire.LoopType) int {
	if t == wire.LoopUnmark {
		return c.UnmarkDelay
	}
	return c.LoopDelay
}
