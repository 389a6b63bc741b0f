package sim

import (
	"fmt"

	"topomap/internal/wire"
)

// The engine stores wire state as struct-of-arrays planes rather than dense
// []wire.Message rows: a narrow per-port mask word (presence bits plus the
// KILL flag) and separate packed payload planes per channel family. A port
// slot costs 17 bytes per buffer side (2 mask + 6 grow + 6 die + 2 loop +
// 1 dfs) against the 38-byte struct, and — far more importantly — the
// per-tick hot paths (the delivery test, the consumed-input clear, the
// blank sweep of an idle region) touch only the mask plane: 2 bytes per
// port instead of a struct load. Payload planes are written only under
// their mask bit and read only under it, so they are never cleared — a
// stale word behind a clear mask is unreachable, exactly like the stale
// fields behind wire.Message.Blank.
//
// Plane indexing: port slot i = v·δ + (p-1) for node v, 1-based port p.
// mask, loop and dfs are indexed by slot; grow and die hold the three
// snake kinds of their family at 3·i+k (kind = dense index k, so the kind
// is implicit in the sub-slot and is not stored).
type wirePlane struct {
	mask []uint16 // presence bits | wire.KillBit, one per port slot
	grow []uint16 // packed wire.GrowChar, three kinds per slot
	die  []uint16 // packed wire.DieChar, three kinds per slot
	loop []uint16 // packed wire.LoopToken, one per slot
	dfs  []uint8  // wire.DFSToken.Out, one per slot
}

// resize re-targets the plane at `need` port slots, reusing capacity. Only
// the mask plane is cleared on reuse: payload words are unreachable behind
// a clear mask.
func (pl *wirePlane) resize(need int) {
	pl.mask = zeroed(pl.mask, need)
	pl.grow = sized(pl.grow, 3*need)
	pl.die = sized(pl.die, 3*need)
	pl.loop = sized(pl.loop, need)
	pl.dfs = sized(pl.dfs, need)
}

// loadPort materialises port slot i into m: presence state from the mask
// word, then only the occupied channels. Unoccupied channels of m keep
// whatever they held — unreadable behind the mask, the same invariant
// wire.Message.Blank establishes — so a blank slot just blanks m.
func (pl *wirePlane) loadPort(i int, m *wire.Message) {
	w := pl.mask[i]
	if w == 0 {
		m.Blank()
		return
	}
	m.SetMaskWord(w)
	for k := 0; k < 3; k++ {
		if m.HasGrowKind(k) {
			m.Grow[k] = wire.UnpackGrowChar(k, pl.grow[3*i+k])
		}
		if m.HasDieKind(k) {
			m.Die[k] = wire.UnpackDieChar(k, pl.die[3*i+k])
		}
	}
	if m.HasLoop() {
		m.Loop = wire.UnpackLoopToken(pl.loop[i])
	}
	if m.HasDFS() {
		m.DFS = wire.DFSToken{Out: pl.dfs[i]}
	}
}

// copySlot copies port slot j of src into slot i, mask-gated per channel
// family: the word under a clear bit is stale either way.
func (pl *wirePlane) copySlot(i int, src *wirePlane, j int) {
	w := src.mask[j]
	pl.mask[i] = w
	if w&wire.GrowBits != 0 {
		copy(pl.grow[3*i:3*i+3], src.grow[3*j:3*j+3])
	}
	if w&wire.DieBits != 0 {
		copy(pl.die[3*i:3*i+3], src.die[3*j:3*j+3])
	}
	if w&wire.LoopBit != 0 {
		pl.loop[i] = src.loop[j]
	}
	if w&wire.DFSBit != 0 {
		pl.dfs[i] = src.dfs[j]
	}
}

// Ports is one processor's view of its wires for the tick in flight. The in
// side reads the node's δ slots of the tick-t plane in place; the out side
// writes a δ-slot plane the engine routes into the tick-t+1 plane after
// Step returns. Words use the packed layout of
// wire/plane.go; channel k of a family is the dense kind index. Ports are
// 1-based, and a word is meaningful only under its mask bit.
type Ports struct {
	in   *wirePlane
	base int // the node's first slot in in
	out  wirePlane
}

// NewPorts returns a standalone view of len(in) ports whose in side holds in
// and whose out side is blank: a harness for stepping an automaton outside an
// engine, read back with OutMessage.
func NewPorts(in []wire.Message) *Ports {
	io := &Ports{in: &wirePlane{}}
	io.in.resize(len(in))
	io.out.resize(len(in))
	for p := range in {
		m := &in[p]
		io.in.mask[p] = m.MaskWord()
		for k := 0; k < 3; k++ {
			io.in.grow[3*p+k] = wire.PackGrowChar(m.Grow[k])
			io.in.die[3*p+k] = wire.PackDieChar(m.Die[k])
		}
		io.in.loop[p] = wire.PackLoopToken(m.Loop)
		io.in.dfs[p] = m.DFS.Out
	}
	return io
}

// InMask returns in-port port's mask word: presence bits | wire.KillBit.
func (io *Ports) InMask(port int) uint16 { return io.in.mask[io.base+port-1] }

// InGrow returns the growing character of dense kind k on in-port port.
func (io *Ports) InGrow(port, k int) uint16 { return io.in.grow[3*(io.base+port-1)+k] }

// InDie returns the dying character of dense kind k on in-port port.
func (io *Ports) InDie(port, k int) uint16 { return io.in.die[3*(io.base+port-1)+k] }

// InLoop returns the loop token on in-port port.
func (io *Ports) InLoop(port int) uint16 { return io.in.loop[io.base+port-1] }

// InDFS returns the DFS token's out-port entry on in-port port.
func (io *Ports) InDFS(port int) uint8 { return io.in.dfs[io.base+port-1] }

// InMessage materialises in-port port as a wire.Message.
func (io *Ports) InMessage(port int) wire.Message {
	var m wire.Message
	io.in.loadPort(io.base+port-1, &m)
	return m
}

// OutMessage materialises what Step wrote to out-port port.
func (io *Ports) OutMessage(port int) wire.Message {
	var m wire.Message
	io.out.loadPort(port-1, &m)
	return m
}

// SetGrow writes the growing character w of dense kind k to out-port port.
// Like wire.Message.SetGrow, it panics if the channel is already set.
func (io *Ports) SetGrow(port, k int, w uint16) {
	bit := wire.GrowBit0 << k
	if io.out.mask[port-1]&bit != 0 {
		panic(fmt.Sprintf("wire: duplicate %v character in one tick", wire.GrowKindAt(k)))
	}
	io.out.grow[3*(port-1)+k] = w
	io.out.mask[port-1] |= bit
}

// SetDie writes the dying character w of dense kind k to out-port port.
func (io *Ports) SetDie(port, k int, w uint16) {
	bit := wire.DieBit0 << k
	if io.out.mask[port-1]&bit != 0 {
		panic(fmt.Sprintf("wire: duplicate %v character in one tick", wire.DieKindAt(k)))
	}
	io.out.die[3*(port-1)+k] = w
	io.out.mask[port-1] |= bit
}

// SetLoop writes the loop token w to out-port port.
func (io *Ports) SetLoop(port int, w uint16) {
	if io.out.mask[port-1]&wire.LoopBit != 0 {
		panic("wire: duplicate loop token in one tick")
	}
	io.out.loop[port-1] = w
	io.out.mask[port-1] |= wire.LoopBit
}

// SetDFS writes the DFS token, carrying out-port entry outP, to out-port
// port.
func (io *Ports) SetDFS(port int, outP uint8) {
	if io.out.mask[port-1]&wire.DFSBit != 0 {
		panic("wire: duplicate DFS token in one tick")
	}
	io.out.dfs[port-1] = outP
	io.out.mask[port-1] |= wire.DFSBit
}

// SetKill puts the KILL token on out-port port (a flag: setting it twice is
// harmless, as with wire.Message.Kill).
func (io *Ports) SetKill(port int) { io.out.mask[port-1] |= wire.KillBit }

// unrouted marks an unwired out-port in the packed routing table.
const unrouted = ^uint32(0)

// MaxNodes is the engine's node-count ceiling: the packed routing table
// keeps the destination node in 24 bits (and the in-port in 8, bounded by
// wire.MaxDelta anyway). ResetRooted panics beyond it; callers with
// user-supplied graphs (core.Session) reject them with an error first.
const MaxNodes = 1 << 24
