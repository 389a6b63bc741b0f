package snake

import "topomap/internal/wire"

// GrowOut is the broadcast emission of a growing-snake component for one
// tick, in the packed layout of Char.Word. If PerPort is set, out-port p
// must carry the freshly generated character (p, ∗) whose part is Word's —
// body for the tail-insertion rule of §2.3.2, head for a baby snake's first
// tick; otherwise Word is sent unchanged through every wired out-port. On
// gives the word for one port.
type GrowOut struct {
	Has     bool
	PerPort bool
	Word    uint16
}

// Word-form characters the growing components generate: a tail, and the
// (·, ∗) head and body whose Out entry On fills in per port.
const (
	headWord = uint16(wire.Head) << charPartShift
	bodyWord = uint16(wire.Body) << charPartShift
	tailWord = uint16(wire.Tail) << charPartShift
)

// On returns the word out-port port carries.
func (g GrowOut) On(port int) uint16 {
	if g.PerPort {
		return g.Word | uint16(port)<<charOutShift
	}
	return g.Word
}

// GrowRelay is the standard pass-through behaviour of a processor for one
// growing-snake kind (§2.3.2): the first character to arrive marks the
// processor visited and designates the parent in-port; only characters
// arriving through the parent in-port are subsequently accepted; accepted
// characters are re-broadcast through every out-port after the speed-1 hold;
// when the tail passes, a new body character (i, ∗) is inserted ahead of it
// on each out-port i.
//
// The same structure, with emissions re-dressed in the OG alphabet by the
// caller, implements the root's IG→OG conversion (RCA step 2): the paper's
// conversion rules are exactly the relay rules with the alphabet changed.
type GrowRelay struct {
	// pipe leads so the three flag bytes pad its 2-byte alignment
	// instead of widening the struct (relays are the bulk of every
	// arena-allocated processor).
	pipe Pipeline

	Visited  bool
	ParentIn uint8 // 1-based; valid when Visited

	// Deaf suppresses all acceptance: set on a snake's initiator so its
	// own flood cannot re-enter it.
	Deaf bool

	tailPending bool
}

// NewGrowRelay returns a relay with the given pipeline hold (normally
// Speed1Delay; configurable for the speed-ablation experiments).
func NewGrowRelay(delay int) GrowRelay {
	return GrowRelay{pipe: NewPipeline(delay)}
}

// Busy reports whether the relay still holds characters to forward.
func (r *GrowRelay) Busy() bool { return r.pipe.Len() > 0 || r.tailPending }

// Hold returns how many further ticks the relay is certain to emit nothing
// (-1 when it is not busy at all): 0 for a pending tail re-emission, the
// front character's remaining pipeline hold otherwise.
func (r *GrowRelay) Hold() int {
	if r.tailPending {
		return 0
	}
	return r.pipe.Hold()
}

// AgeN replays n skipped all-blank ticks of pipeline aging.
func (r *GrowRelay) AgeN(n int) { r.pipe.AgeN(n) }

// PipeLen returns the number of buffered characters (tail-pending counts as
// one), for residue accounting.
func (r *GrowRelay) PipeLen() int {
	n := r.pipe.Len()
	if r.tailPending {
		n++
	}
	return n
}

// HasResidue reports whether the relay holds any trace of a growing snake —
// markings or buffered characters — in the sense of the KILL token rules.
func (r *GrowRelay) HasResidue() bool { return r.Visited || r.Busy() }

// Kill erases all growing-snake residue (KILL-token contact).
func (r *GrowRelay) Kill() {
	r.Visited = false
	r.ParentIn = 0
	r.tailPending = false
	r.pipe.Clear()
}

// FlushPipe erases buffered characters but keeps the visited/parent marks.
// Used when the root's converting relay is sealed by a KILL token: the
// closure must survive (only UNMARK reopens the root) while any buffered
// stragglers are residue to discard.
func (r *GrowRelay) FlushPipe() {
	r.tailPending = false
	r.pipe.Clear()
}

// BeginTick advances pipeline ages; call exactly once per tick before
// Receive/Emit.
func (r *GrowRelay) BeginTick() { r.pipe.Age() }

// Receive offers an arriving character, packed as by Char.Word, to the
// relay; a relay only forwards, so the word is queued as it came. inPort is
// 1-based. Simultaneous arrivals must be offered in ascending in-port order
// so the paper's tie-break (lowest in-port is deemed first) holds. The
// character's ∗ entry must already have been rewritten (Arrive).
func (r *GrowRelay) Receive(w uint16, inPort uint8) {
	if r.Deaf {
		return
	}
	if !r.Visited {
		r.Visited = true
		r.ParentIn = inPort
		r.pipe.pushWord(w)
		return
	}
	if inPort == r.ParentIn {
		r.pipe.pushWord(w)
	}
	// Characters through non-parent in-ports are ignored.
}

// Emit returns this tick's broadcast, if any. Call once per tick after all
// Receive calls.
func (r *GrowRelay) Emit() GrowOut {
	if r.tailPending {
		if _, ok := r.pipe.popWord(); ok {
			panic("snake: character queued behind a tail")
		}
		r.tailPending = false
		return GrowOut{Has: true, Word: tailWord}
	}
	w, ok := r.pipe.popWord()
	if !ok {
		return GrowOut{}
	}
	if wordPart(w) == wire.Tail {
		// Insert the new body character ahead of the tail: out-port i
		// carries (i, ∗) now; the tail follows next tick.
		r.tailPending = true
		return GrowOut{Has: true, PerPort: true, Word: bodyWord}
	}
	return GrowOut{Has: true, Word: w}
}

// Initiator emits the two-character baby snake of a growing snake's creator:
// on the first tick the head (i, ∗) through each out-port i, on the second
// the tail through each out-port (§2.3.2). The zero value is ready to use
// after Start.
type Initiator struct {
	phase uint8 // 0 idle, 1 emit head, 2 emit tail
}

// Start arms the initiator; the next two Emit calls produce the baby snake.
func (ini *Initiator) Start() { ini.phase = 1 }

// Busy reports whether emissions are still pending.
func (ini *Initiator) Busy() bool { return ini.phase != 0 }

// Emit returns this tick's emission.
func (ini *Initiator) Emit() GrowOut {
	switch ini.phase {
	case 1:
		ini.phase = 2
		// The head of a baby snake is the per-port character H(i, ∗).
		return GrowOut{Has: true, PerPort: true, Word: headWord}
	case 2:
		ini.phase = 0
		return GrowOut{Has: true, Word: tailWord}
	}
	return GrowOut{}
}
