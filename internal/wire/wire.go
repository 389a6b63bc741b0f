// Package wire defines the constant-size message alphabet exchanged by the
// finite-state processors of the network model in Goldstein's "Determination
// of the Topology of a Directed Network" (IPPS 2002).
//
// A message is the product of a constant number of independent channels, one
// per construct type. Construct types never interact (paper §2.3.1), so a
// processor may forward, in the same global clock tick, one character of each
// snake kind, one loop token, one breadth-first token and the DFS token over
// the same wire. The number of channels is a network constant, so the message
// alphabet is finite with size a function of the degree bound δ only; see
// AlphabetSize.
//
// Port numbering convention: ports are numbered 1..δ. The value 0 plays the
// role of the paper's "∗" wildcard in snake characters (rewritten to the
// receiving in-port on arrival) and means "unset" elsewhere.
package wire

import (
	"errors"
	"fmt"
)

// Star is the wildcard second parameter of freshly generated snake
// characters; the receiving processor rewrites it to the in-port of arrival.
const Star = 0

// SnakeKind identifies one of the snake alphabets. Growing and dying snakes
// use disjoint sets of kinds so that a processor can always tell with which
// kind of snake it is dealing (paper §2.3).
type SnakeKind uint8

const (
	// KindIG is the in-growing snake: generated at the RCA initiator A,
	// searching for the root.
	KindIG SnakeKind = iota
	// KindOG is the out-growing snake: the root's conversion of the IG
	// snake, searching for A.
	KindOG
	// KindBG is the growing snake of the Backwards Communication
	// Algorithm, generated at the BCA initiator B and searching for B's
	// own designated in-port. A dedicated alphabet keeps the root's RCA
	// converter from reacting to BCA traffic.
	KindBG
	// KindID is the in-dying snake: marks the path A → root.
	KindID
	// KindOD is the out-dying snake: marks the path root → A.
	KindOD
	// KindBD is the dying snake of the BCA: marks the loop B → … → A → B.
	KindBD

	numKinds = 6
)

// NumGrowKinds is the number of growing-snake alphabets (IG, OG, BG).
const NumGrowKinds = 3

// NumDieKinds is the number of dying-snake alphabets (ID, OD, BD).
const NumDieKinds = 3

// GrowIndex maps a growing kind to a dense index 0..NumGrowKinds-1.
func GrowIndex(k SnakeKind) int {
	switch k {
	case KindIG:
		return 0
	case KindOG:
		return 1
	case KindBG:
		return 2
	}
	panic(fmt.Sprintf("wire: %v is not a growing snake kind", k))
}

// DieIndex maps a dying kind to a dense index 0..NumDieKinds-1.
func DieIndex(k SnakeKind) int {
	switch k {
	case KindID:
		return 0
	case KindOD:
		return 1
	case KindBD:
		return 2
	}
	panic(fmt.Sprintf("wire: %v is not a dying snake kind", k))
}

// GrowKindAt is the inverse of GrowIndex.
func GrowKindAt(i int) SnakeKind { return [...]SnakeKind{KindIG, KindOG, KindBG}[i] }

// DieKindAt is the inverse of DieIndex.
func DieKindAt(i int) SnakeKind { return [...]SnakeKind{KindID, KindOD, KindBD}[i] }

// IsGrowing reports whether k is a growing-snake kind.
func (k SnakeKind) IsGrowing() bool { return k == KindIG || k == KindOG || k == KindBG }

// IsDying reports whether k is a dying-snake kind.
func (k SnakeKind) IsDying() bool { return k == KindID || k == KindOD || k == KindBD }

func (k SnakeKind) String() string {
	switch k {
	case KindIG:
		return "IG"
	case KindOG:
		return "OG"
	case KindBG:
		return "BG"
	case KindID:
		return "ID"
	case KindOD:
		return "OD"
	case KindBD:
		return "BD"
	}
	return fmt.Sprintf("SnakeKind(%d)", uint8(k))
}

// Part distinguishes head, body and tail characters of a snake.
type Part uint8

const (
	// Head is the leading character of a snake. For growing snakes it is
	// the character IGH(i, j); for dying snakes, the character whose (i)
	// entry designates the successor out-port of the processor that
	// consumes it.
	Head Part = iota
	// Body is an interior character encoding one edge of the path.
	Body
	// Tail is the unique trailing character of a snake.
	Tail
)

func (p Part) String() string {
	switch p {
	case Head:
		return "H"
	case Body:
		return "B"
	case Tail:
		return "T"
	}
	return fmt.Sprintf("Part(%d)", uint8(p))
}

// GrowChar is one character of a growing snake. Out is the out-port of the
// sending processor on the encoded edge; In is the in-port of the receiving
// processor (Star until first received). Tail characters carry no ports.
type GrowChar struct {
	Kind SnakeKind
	Part Part
	Out  uint8
	In   uint8
}

// DieChar is one character of a dying snake. Out/In carry the same edge
// encoding as GrowChar. Flag marks the single character of a BCA dying snake
// that will be consumed, as a head, by the BCA target processor; Payload is
// the constant-size BCA message attached to that character.
type DieChar struct {
	Kind    SnakeKind
	Part    Part
	Out     uint8
	In      uint8
	Flag    bool
	Payload Payload
}

// Payload is the constant-size message delivered by a BCA transaction.
type Payload uint8

const (
	// PayloadNone is the zero payload.
	PayloadNone Payload = iota
	// PayloadDFSReturn tells the BCA target that the depth-first-search
	// token is being handed back along the reversed edge.
	PayloadDFSReturn
	// PayloadPing is a generic application payload used by the standalone
	// BCA primitive exposed in the public API and by examples/tests.
	PayloadPing
	// PayloadPong is a second generic application payload.
	PayloadPong

	// NumPayloads is the size of the payload alphabet; it is a network
	// constant independent of N.
	NumPayloads = 4
)

func (p Payload) String() string {
	switch p {
	case PayloadNone:
		return "none"
	case PayloadDFSReturn:
		return "dfs-return"
	case PayloadPing:
		return "ping"
	case PayloadPong:
		return "pong"
	}
	return fmt.Sprintf("Payload(%d)", uint8(p))
}

// LoopType identifies a loop-token variant.
type LoopType uint8

const (
	// LoopForward is the FORWARD(i, j) token: the DFS token moved forward
	// along an edge using out-port i and in-port j. Speed-1.
	LoopForward LoopType = iota
	// LoopBack is the BACK token: the DFS token moved backwards (via the
	// BCA). Speed-1.
	LoopBack
	// LoopAck is the BCA acknowledgement token released by the BCA target
	// once it has received the payload. Speed-1.
	LoopAck
	// LoopUnmark erases predecessor/successor designations as it travels
	// the marked loop. Speed-3.
	LoopUnmark
)

func (t LoopType) String() string {
	switch t {
	case LoopForward:
		return "FORWARD"
	case LoopBack:
		return "BACK"
	case LoopAck:
		return "ACK"
	case LoopUnmark:
		return "UNMARK"
	}
	return fmt.Sprintf("LoopType(%d)", uint8(t))
}

// Speed1 reports whether the token type travels at speed-1 (3 ticks per hop).
func (t LoopType) Speed1() bool { return t != LoopUnmark }

// LoopToken is a token travelling along a marked loop. Only FORWARD carries
// meaningful Out/In entries (the ports of the DFS edge being reported).
type LoopToken struct {
	Type LoopType
	Out  uint8
	In   uint8
}

// DFSToken is the depth-first-search token. Out is the out-port through which
// the sending processor emitted it; the receiving in-port is observed at
// arrival. It has the same basic structure as a snake character (paper §3.1).
type DFSToken struct {
	Out uint8
}

// Presence bits of Message.Has and of the engine's mask word. One bit per
// channel: growing kinds occupy bits 0..NumGrowKinds-1 (GrowBit0<<k for
// dense index k), dying kinds the next block (DieBit0<<k), then the loop and
// DFS tokens. The packed mask makes the blank test — the single hottest
// predicate of the simulation — one load and compare instead of a walk over
// eight flags, and lets receivers dispatch on occupied channels only.
const (
	GrowBit0 uint16 = 1 << iota
	growBit1
	growBit2
	DieBit0
	dieBit1
	dieBit2
	LoopBit
	DFSBit
)

// GrowBits and DieBits select a channel family inside a mask word.
const (
	GrowBits = GrowBit0 | growBit1 | growBit2
	DieBits  = DieBit0 | dieBit1 | dieBit2
)

// Message is the complete symbol carried by one wire during one global clock
// tick. The zero value is the blank character b sent by quiescent processors.
// Each channel holds at most one construct; the Has mask records presence
// (use the Set*/HasGrowKind/HasDieKind/HasLoop/HasDFS accessors — channel
// payloads are meaningful only when the matching bit is set).
type Message struct {
	Grow [NumGrowKinds]GrowChar
	Die  [NumDieKinds]DieChar
	Loop LoopToken
	DFS  DFSToken

	// Has is the channel-presence bitmask (see the bit constants).
	Has uint16

	// Kill is the speed-3 breadth-first KILL token eradicating
	// growing-snake residue. It is a plain flag rather than a Has bit:
	// it carries no payload and is read directly on several hot paths.
	Kill bool
}

// HasGrowKind reports whether the growing channel with dense index i is
// occupied.
func (m *Message) HasGrowKind(i int) bool { return m.Has&(GrowBit0<<i) != 0 }

// HasDieKind reports whether the dying channel with dense index i is
// occupied.
func (m *Message) HasDieKind(i int) bool { return m.Has&(DieBit0<<i) != 0 }

// HasLoop reports whether a loop token is present.
func (m *Message) HasLoop() bool { return m.Has&LoopBit != 0 }

// HasDFS reports whether the DFS token is present.
func (m *Message) HasDFS() bool { return m.Has&DFSBit != 0 }

// IsBlank reports whether m is the blank character (no constructs present).
func (m *Message) IsBlank() bool {
	return m.Has == 0 && !m.Kill
}

// Blank resets m to the blank character. Only the presence mask and KILL
// flag are cleared: stale channel payloads are unreadable behind a clear
// mask, so this is equivalent to (and much cheaper than) zeroing the whole
// struct on the per-tick clear path.
func (m *Message) Blank() {
	m.Has = 0
	m.Kill = false
}

// SetGrow places a growing character on the message.
func (m *Message) SetGrow(c GrowChar) {
	i := GrowIndex(c.Kind)
	if m.Has&(GrowBit0<<i) != 0 {
		panic(fmt.Sprintf("wire: duplicate %v character in one tick", c.Kind))
	}
	m.Grow[i] = c
	m.Has |= GrowBit0 << i
}

// SetDie places a dying character on the message.
func (m *Message) SetDie(c DieChar) {
	i := DieIndex(c.Kind)
	if m.Has&(DieBit0<<i) != 0 {
		panic(fmt.Sprintf("wire: duplicate %v character in one tick", c.Kind))
	}
	m.Die[i] = c
	m.Has |= DieBit0 << i
}

// SetLoop places a loop token on the message.
func (m *Message) SetLoop(t LoopToken) {
	if m.Has&LoopBit != 0 {
		panic("wire: duplicate loop token in one tick")
	}
	m.Loop = t
	m.Has |= LoopBit
}

// SetDFS places the DFS token on the message.
func (m *Message) SetDFS(t DFSToken) {
	if m.Has&DFSBit != 0 {
		panic("wire: duplicate DFS token in one tick")
	}
	m.DFS = t
	m.Has |= DFSBit
}

// Validate checks that every construct on the message is well-formed for a
// network with degree bound delta. It returns an error naming the first
// violation found.
func (m *Message) Validate(delta int) error {
	checkPort := func(what string, v uint8, allowStar bool) error {
		if v == Star {
			if allowStar {
				return nil
			}
			return fmt.Errorf("wire: %s port is unset", what)
		}
		if int(v) > delta {
			return fmt.Errorf("wire: %s port %d exceeds degree bound %d", what, v, delta)
		}
		return nil
	}
	for i := 0; i < NumGrowKinds; i++ {
		if !m.HasGrowKind(i) {
			continue
		}
		c := m.Grow[i]
		if GrowIndex(c.Kind) != i {
			return fmt.Errorf("wire: growing char kind %v stored at index %d", c.Kind, i)
		}
		if c.Part != Tail {
			if err := checkPort(c.Kind.String()+" out", c.Out, false); err != nil {
				return err
			}
			if err := checkPort(c.Kind.String()+" in", c.In, true); err != nil {
				return err
			}
		}
	}
	for i := 0; i < NumDieKinds; i++ {
		if !m.HasDieKind(i) {
			continue
		}
		c := m.Die[i]
		if DieIndex(c.Kind) != i {
			return fmt.Errorf("wire: dying char kind %v stored at index %d", c.Kind, i)
		}
		if c.Part != Tail {
			if err := checkPort(c.Kind.String()+" out", c.Out, false); err != nil {
				return err
			}
			if err := checkPort(c.Kind.String()+" in", c.In, true); err != nil {
				return err
			}
		}
		if c.Flag && c.Kind != KindBD {
			return fmt.Errorf("wire: flagged character on non-BCA snake %v", c.Kind)
		}
		if c.Payload >= NumPayloads {
			return fmt.Errorf("wire: payload %d out of range", c.Payload)
		}
	}
	if m.HasLoop() {
		if m.Loop.Type == LoopForward {
			if err := checkPort("FORWARD out", m.Loop.Out, false); err != nil {
				return err
			}
			if err := checkPort("FORWARD in", m.Loop.In, false); err != nil {
				return err
			}
		}
	}
	if m.HasDFS() {
		if err := checkPort("DFS out", m.DFS.Out, false); err != nil {
			return err
		}
	}
	return nil
}

// ErrNotConstantSize is returned by strict validators when a message would
// exceed the constant-size bound of the model.
var ErrNotConstantSize = errors.New("wire: message exceeds constant-size bound")

// AlphabetSize returns |I|, the number of distinct symbols a single wire can
// carry in one tick in a network with degree bound delta. It is the product
// of the per-channel alphabet sizes and is a constant depending only on delta
// (paper §5, Lemma 5.2 uses |I|^δ transcripts per tick).
func AlphabetSize(delta int) float64 {
	d := float64(delta)
	// One growing char: head or body with (out 1..δ, in ∗|1..δ), or tail,
	// or absent: 2·δ·(δ+1) + 1 + 1.
	grow := 2*d*(d+1) + 2
	// One dying char: head or body with ports, optionally flagged with a
	// payload, or tail, or absent.
	die := 2*d*(d+1)*float64(NumPayloads+1) + 2
	// Loop token: FORWARD(i,j) | BACK | ACK | UNMARK | absent.
	loop := d*d + 4
	// KILL present/absent.
	kill := 2.0
	// DFS token with out-port, or absent.
	dfs := d + 1
	return grow * grow * grow * die * die * die * loop * kill * dfs
}

func (c GrowChar) String() string {
	if c.Part == Tail {
		return c.Kind.String() + "T"
	}
	in := "*"
	if c.In != Star {
		in = fmt.Sprintf("%d", c.In)
	}
	return fmt.Sprintf("%s%s(%d,%s)", c.Kind, c.Part, c.Out, in)
}

func (c DieChar) String() string {
	if c.Part == Tail {
		return c.Kind.String() + "T"
	}
	in := "*"
	if c.In != Star {
		in = fmt.Sprintf("%d", c.In)
	}
	flag := ""
	if c.Flag {
		flag = fmt.Sprintf("!%s", c.Payload)
	}
	return fmt.Sprintf("%s%s(%d,%s)%s", c.Kind, c.Part, c.Out, in, flag)
}

func (t LoopToken) String() string {
	if t.Type == LoopForward {
		return fmt.Sprintf("FORWARD(%d,%d)", t.Out, t.In)
	}
	return t.Type.String()
}

// String renders the message compactly; the blank character renders as "b".
func (m Message) String() string {
	if m.IsBlank() {
		return "b"
	}
	s := ""
	sep := func() {
		if s != "" {
			s += "+"
		}
	}
	for i := 0; i < NumGrowKinds; i++ {
		if m.HasGrowKind(i) {
			sep()
			s += m.Grow[i].String()
		}
	}
	for i := 0; i < NumDieKinds; i++ {
		if m.HasDieKind(i) {
			sep()
			s += m.Die[i].String()
		}
	}
	if m.HasLoop() {
		sep()
		s += m.Loop.String()
	}
	if m.Kill {
		sep()
		s += "KILL"
	}
	if m.HasDFS() {
		sep()
		s += fmt.Sprintf("DFS(%d)", m.DFS.Out)
	}
	return s
}
