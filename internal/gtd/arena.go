package gtd

import (
	"unsafe"

	"topomap/internal/sim"
)

// arenaChunk is the processor count per arena block. Blocks are fixed-size so
// pointers handed out stay stable while the arena grows (a []Processor that
// reallocated would move live automata under the engine).
const arenaChunk = 4096

// Arena bulk-allocates Processors in flat blocks: constructing, resetting,
// and garbage-collecting N automata then scales with pages, not objects
// (N=10⁶ is ~250 pointer-free blocks instead of a million heap objects).
// All processors share one Config held by the arena — they only read it —
// so the per-node config copy the old factory made disappears too.
//
// An arena only grows: blocks are retained across engine resets (the
// engine recycles automata via sim.Resettable) and reused by index. It is
// not safe for concurrent allocation; the engine constructs automata
// sequentially.
type Arena struct {
	cfg    Config
	blocks []*[arenaChunk]Processor
	used   int // processors handed out
}

// NewArena prepares an arena whose processors run cfg.
func NewArena(cfg Config) *Arena { return &Arena{cfg: cfg} }

// Factory returns the sim factory allocating from this arena. Successive
// calls hand out successive slots; the engine's Resettable recycling means
// a factory call happens only for nodes beyond every previous graph's size,
// so slots map 1:1 to the largest node range seen.
func (a *Arena) Factory() func(sim.NodeInfo) sim.Automaton {
	return func(info sim.NodeInfo) sim.Automaton {
		blk, slot := a.used/arenaChunk, a.used%arenaChunk
		if blk == len(a.blocks) {
			a.blocks = append(a.blocks, new([arenaChunk]Processor))
		}
		p := &a.blocks[blk][slot]
		a.used++
		p.cfg = &a.cfg
		p.Reset(info)
		return p
	}
}

// FootprintBytes reports the memory the arena's blocks pin, for the
// engine-memory telemetry surfaced by core.Session.Mem.
func (a *Arena) FootprintBytes() int64 {
	return int64(len(a.blocks)) * arenaChunk * int64(unsafe.Sizeof(Processor{}))
}

// Allocated reports how many processor slots have been handed out.
func (a *Arena) Allocated() int { return a.used }
