// Package snake implements the per-processor mechanics of the
// Even–Litman–Winkler snake data structure as used by the paper: growing
// snakes (information generators that carve breadth-first-search trees) and
// dying snakes (path markers), together with the speed-s hold pipelines that
// realise the paper's "speed" concept (§2.1): a speed-1 construct remains in
// a processor for 3 global clock ticks per hop, a speed-3 construct for 1.
//
// Everything in this package is constant-size per processor: pipelines are
// bounded FIFOs (characters arrive at most one per tick and leave at one per
// tick after a constant hold), and all other state is a fixed set of port
// numbers and flags. This is what keeps the processors finite-state.
package snake

import (
	"fmt"

	"topomap/internal/wire"
)

// Char is the kind-independent payload of a snake character. Out/In encode
// one edge of a path: the sending processor's out-port and the receiving
// processor's in-port (wire.Star until first received). Flag and Payload are
// used only by the BCA dying snake (see DieConverter's flag mode).
type Char struct {
	Part    wire.Part
	Out     uint8
	In      uint8
	Flag    bool
	Payload wire.Payload
}

// Word packs c into the 16-bit character layout of the engine's wire planes
// (wire.PackGrowChar / wire.PackDieChar without the kind, which the plane
// slot carries), so a processor moves characters between its ports and its
// pipelines with no intermediate struct.
func (c Char) Word() uint16 { return packChar(c) }

// CharOf unpacks a wire-plane character word (the inverse of Word).
func CharOf(w uint16) Char { return unpackChar(w) }

// Arrive applies the ∗ rewrite to a growing-character word read on in-port
// port: a head or body whose In entry is wire.Star takes the port of
// arrival (§2.3.2); a tail or an already-set entry is unchanged.
func Arrive(w uint16, port uint8) uint16 {
	if w&charPortMask == wire.Star && wordPart(w) != wire.Tail {
		w |= uint16(port)
	}
	return w
}

// wordPart is the Part field of a packed character.
func wordPart(w uint16) wire.Part { return wire.Part(w >> charPartShift & charPartMask) }

func (c Char) String() string {
	if c.Part == wire.Tail {
		return "T"
	}
	f := ""
	if c.Flag {
		f = fmt.Sprintf("!%s", c.Payload)
	}
	return fmt.Sprintf("%s(%d,%d)%s", c.Part, c.Out, c.In, f)
}

// pipeCap bounds pipeline occupancy. Characters arrive at most one per tick
// and are serviced at one per tick after a hold of at most Speed1Delay ticks,
// so steady-state occupancy is at most Speed1Delay+2; the cap leaves slack
// for the tail-insertion stall. Exceeding it indicates a protocol bug, not a
// data-dependent condition, so the pipeline panics.
const pipeCap = 6

// Speed1Delay is the extra hold (in ticks beyond the wire transit) of a
// speed-1 construct: arrive at tick t, leave with the outputs of tick t+2,
// be read by the next processor at t+3 — three ticks per hop (§2.1).
const Speed1Delay = 2

// Speed3Delay is the extra hold of a speed-3 construct: arrive at tick t,
// leave with the outputs of tick t — one tick per hop.
const Speed3Delay = 0

// MaxDelay is the largest pipeline hold NewPipeline accepts (ablation
// headroom above the paper's speed-1 delay, bounded by the packed pipeline
// capacity).
const MaxDelay = pipeCap - 2

// Packed-character field layout, identical to the wire plane encoding (see
// Word): ports need 5 bits under wire.MaxDelta, Part 2 bits, Payload 2 bits,
// Flag 1 — a whole snake character in one uint16.
const (
	charOutShift  = 5
	charPartShift = 10
	charFlagBit   = 1 << 12
	charPayShift  = 13
	charPortMask  = 0x1f
	charPartMask  = 0x3
)

func packChar(c Char) uint16 {
	w := uint16(c.In) | uint16(c.Out)<<charOutShift |
		uint16(c.Part)<<charPartShift | uint16(c.Payload)<<charPayShift
	if c.Flag {
		w |= charFlagBit
	}
	return w
}

func unpackChar(w uint16) Char {
	return Char{
		Part:    wire.Part(w >> charPartShift & charPartMask),
		Out:     uint8(w >> charOutShift & charPortMask),
		In:      uint8(w & charPortMask),
		Flag:    w&charFlagBit != 0,
		Payload: wire.Payload(w >> charPayShift & charPartMask),
	}
}

// Pipeline is the bounded constant-delay FIFO through which snake characters
// stream across a processor. Call Age once per tick before Push/Pop.
//
// Characters are stored packed (one uint16 each) with a parallel byte of
// arrival clocks, and the clock itself is one byte: a character's residence
// time (clock−at, computed modulo 256) is bounded by delay+pipeCap ≪ 256, so
// the modular difference is always exact even though the clock wraps freely
// during a long busy stretch. AgeN rebases the clock to zero whenever the
// pipeline is empty, so arbitrarily large dormant-tick replays are no-ops.
type Pipeline struct {
	chars [pipeCap]uint16
	ats   [pipeCap]uint8
	delay uint8
	head  uint8
	n     uint8
	clock uint8
}

// NewPipeline returns a pipeline with the given extra hold in ticks
// (Speed1Delay or Speed3Delay).
func NewPipeline(delay int) Pipeline {
	if delay < 0 || delay > pipeCap-2 {
		panic("snake: pipeline delay out of range")
	}
	return Pipeline{delay: uint8(delay)}
}

// Age advances the residence time of every queued character by one tick.
// O(1): only the clock moves.
func (p *Pipeline) Age() { p.clock++ }

// AgeN advances every queued character's residence time by n ticks at once:
// the bulk equivalent of n successive Age calls, used to replay ticks the
// scheduler skipped while the owning processor was provably dormant. A
// non-empty pipeline is replayed at most a scheduler hold (≪ 256 ticks —
// the engine wakes busy holders within MaxHold), so the byte clock cannot
// wrap past a resident character; when empty the clock simply rebases.
func (p *Pipeline) AgeN(n int) {
	if p.n == 0 {
		p.clock = 0
		return
	}
	p.clock += uint8(n)
}

// Push enqueues a character that arrived this tick.
func (p *Pipeline) Push(c Char) { p.pushWord(packChar(c)) }

// Pop removes and returns the front character if it has completed its hold.
func (p *Pipeline) Pop() (Char, bool) {
	w, ok := p.popWord()
	return unpackChar(w), ok
}

// pushWord is Push for a packed character.
func (p *Pipeline) pushWord(w uint16) {
	if p.n == pipeCap {
		panic("snake: pipeline overflow — protocol bug")
	}
	i := (p.head + p.n) % pipeCap
	p.chars[i] = w
	p.ats[i] = p.clock
	p.n++
}

// popWord is Pop for a packed character; it returns 0 when nothing is due.
func (p *Pipeline) popWord() (uint16, bool) {
	if p.n == 0 || p.clock-p.ats[p.head] < p.delay {
		return 0, false
	}
	w := p.chars[p.head]
	p.head = (p.head + 1) % pipeCap
	p.n--
	if p.n == 0 {
		p.head, p.clock = 0, 0
	}
	return w, true
}

// Hold returns the number of ticks for which the pipeline is certain to
// release nothing: popping first becomes possible on the (Hold+1)-th next
// tick. It returns -1 when the pipeline is empty (nothing will ever emerge
// without new input). A front character that has already completed its hold
// (queued behind this tick's release) yields 0.
func (p *Pipeline) Hold() int {
	if p.n == 0 {
		return -1
	}
	h := int(p.delay) - int(p.clock-p.ats[p.head]) - 1
	if h < 0 {
		return 0
	}
	return h
}

// Len returns the number of queued characters.
func (p *Pipeline) Len() int { return int(p.n) }

// Clear erases every queued character (KILL-token semantics).
func (p *Pipeline) Clear() {
	p.head = 0
	p.n = 0
	p.clock = 0
}
