package wire

// Packed plane encodings. The simulation engine stores wire state as
// struct-of-arrays planes instead of dense []Message: a narrow per-port mask
// word (presence bits + KILL) plus separate payload planes per channel
// family. Every construct of the alphabet packs into 16 bits once ports are
// bounded by MaxDelta: ports need 5 bits, Part 2, LoopType 2, Payload 2, and
// the snake kind is implicit in the plane slot (one slot per dense kind
// index). Processors read and write plane words directly (sim.Ports);
// these helpers bridge the words and the struct form, which the engine
// materialises only for the root transcript, validation and inspection.

// MaxDelta is the engine's degree-bound ceiling: ports are packed into
// 5-bit fields, so networks with δ > 31 are rejected at engine construction.
// The protocol itself has the same order of ceiling independently (the DFS
// bookkeeping uses a 32-bit per-port bitmask), so this costs no generality.
const MaxDelta = 31

// Packed-char field layout (grow, die and loop words share the port fields):
//
//	bits 0..4   In port (0 = Star)
//	bits 5..9   Out port
//	bits 10..11 Part (grow/die) or LoopType (loop)
//	bit  12     Flag (die only)
//	bits 13..14 Payload (die only)
const (
	packInShift   = 0
	packOutShift  = 5
	packPartShift = 10
	packFlagBit   = 1 << 12
	packPayShift  = 13
	packPortMask  = 0x1f
	packPartMask  = 0x3
)

// KillBit is the KILL-token flag inside a packed mask word; the low bits are
// the Has presence mask (see MaskWord).
const KillBit uint16 = 1 << 15

// MaskWord packs the presence state of m — the Has bitmask plus the KILL
// flag — into the one word the engine's mask plane stores per port.
func (m *Message) MaskWord() uint16 {
	w := m.Has
	if m.Kill {
		w |= KillBit
	}
	return w
}

// SetMaskWord restores presence state from a packed mask word.
func (m *Message) SetMaskWord(w uint16) {
	m.Has = w &^ KillBit
	m.Kill = w&KillBit != 0
}

// PackGrowChar packs a growing character into a plane word. The kind is not
// encoded: the plane slot index carries it (GrowIndex(c.Kind)).
func PackGrowChar(c GrowChar) uint16 {
	return uint16(c.In) | uint16(c.Out)<<packOutShift | uint16(c.Part)<<packPartShift
}

// UnpackGrowChar is the inverse of PackGrowChar for the growing kind with
// dense index i.
func UnpackGrowChar(i int, w uint16) GrowChar {
	return GrowChar{
		Kind: GrowKindAt(i),
		Part: Part(w >> packPartShift & packPartMask),
		Out:  uint8(w >> packOutShift & packPortMask),
		In:   uint8(w & packPortMask),
	}
}

// PackDieChar packs a dying character into a plane word; the kind is implicit
// in the plane slot (DieIndex(c.Kind)).
func PackDieChar(c DieChar) uint16 {
	w := uint16(c.In) | uint16(c.Out)<<packOutShift |
		uint16(c.Part)<<packPartShift | uint16(c.Payload)<<packPayShift
	if c.Flag {
		w |= packFlagBit
	}
	return w
}

// UnpackDieChar is the inverse of PackDieChar for the dying kind with dense
// index i.
func UnpackDieChar(i int, w uint16) DieChar {
	return DieChar{
		Kind:    DieKindAt(i),
		Part:    Part(w >> packPartShift & packPartMask),
		Out:     uint8(w >> packOutShift & packPortMask),
		In:      uint8(w & packPortMask),
		Flag:    w&packFlagBit != 0,
		Payload: Payload(w >> packPayShift & packPartMask),
	}
}

// PackLoopToken packs a loop token into a plane word.
func PackLoopToken(t LoopToken) uint16 {
	return uint16(t.In) | uint16(t.Out)<<packOutShift | uint16(t.Type)<<packPartShift
}

// UnpackLoopToken is the inverse of PackLoopToken.
func UnpackLoopToken(w uint16) LoopToken {
	return LoopToken{
		Type: LoopType(w >> packPartShift & packPartMask),
		Out:  uint8(w >> packOutShift & packPortMask),
		In:   uint8(w & packPortMask),
	}
}

// Compile-time pins: the packed formats above assume two-bit Part, LoopType
// and Payload alphabets and the six-kind snake family. Growing either breaks
// the build here rather than silently corrupting planes.
var (
	_ [NumPayloads - 4]struct{}
	_ [4 - NumPayloads]struct{}
	_ [int(LoopUnmark) - 3]struct{}
	_ [3 - int(LoopUnmark)]struct{}
	_ [int(Tail) - 2]struct{}
	_ [2 - int(Tail)]struct{}
)
