package gtd

import (
	"topomap/internal/sim"
	"topomap/internal/snake"
	"topomap/internal/wire"
)

// Dense growing- and dying-kind indices (the order of wire.GrowKindAt and
// wire.DieKindAt, pinned by the compile-time asserts next to the live bits).
const (
	igIdx = 0
	ogIdx = 1
	bgIdx = 2

	idIdx = 0
	odIdx = 1
	bdIdx = 2
)

// emit composes this tick's out-port words from every live component.
// Iterating the set bits of the occupancy mask (in ascending order — the
// fixed component order of the paper's channel composition) means the
// common step runs one or two emitters, where polling the dozen idle
// components through their Emit state machines used to dominate the
// per-step cost. The mask is read from
// a snapshot: an emitter draining a component leaves its stale bit for
// refreshLive to clear at the end of the step.
func (p *Processor) emit(io *sim.Ports) {
	m := p.live
	for m != 0 {
		bit := m & (-m)
		m &^= bit
		switch bit {
		// Growing snake relays (and the root's IG→OG converting
		// relay, which emits in the OG alphabet).
		case liveGrow0:
			p.emitGrowAt(io, p.grow[0].Emit(), igIdx)
		case liveGrow1:
			p.emitGrowAt(io, p.grow[1].Emit(), ogIdx)
		case liveGrow2:
			p.emitGrowAt(io, p.grow[2].Emit(), bgIdx)
		case liveRootConv:
			p.emitGrowAt(io, p.root.conv.Emit(), ogIdx)

		// Baby snakes of the RCA and BCA initiators.
		case liveRCAIni:
			p.emitGrowAt(io, p.rca.ini.Emit(), igIdx)
		case liveBCAIni:
			p.emitGrowAt(io, p.bcaI.ini.Emit(), bgIdx)

		// Dying snake relays.
		case liveDie0:
			p.emitDieAt(io, idIdx)
		case liveDie1:
			p.emitDieAt(io, odIdx)
		case liveDie2:
			p.emitDieAt(io, bdIdx)

		// Dying snake converters.
		case liveRCAConv:
			if c, port, ok := p.rca.conv.Emit(); ok {
				io.SetDie(int(port), idIdx, c.Word())
			}
		case liveODConv:
			if c, port, ok := p.root.odConv.Emit(); ok {
				io.SetDie(int(port), odIdx, c.Word())
			}
		case liveBCAConv:
			if c, port, ok := p.bcaI.conv.Emit(); ok {
				io.SetDie(int(port), bdIdx, c.Word())
			}

		// Loop token in transit through this processor.
		case liveMarks:
			if t, port, ok := p.marks.emit(); ok {
				io.SetLoop(int(port), wire.PackLoopToken(t))
			}

		// KILL token completing its residual hold.
		case liveKill:
			if p.killPending == 0 {
				p.killPending = -1
				p.broadcastKill(io)
			}
		}
	}

	// Freshly created constructs.
	if p.scratch.loopSet {
		io.SetLoop(int(p.scratch.loopPort), wire.PackLoopToken(p.scratch.loopTok))
	}
	if p.scratch.killNow {
		p.broadcastKill(io)
	}
	if p.scratch.dfsSet {
		io.SetDFS(int(p.scratch.dfsPort), p.scratch.dfsPort)
	}
}

// emitDieAt forwards one dying-snake relay's emission; i is the kind's
// dense index.
func (p *Processor) emitDieAt(io *sim.Ports, i int) {
	if c, port, ok := p.die[i].Emit(); ok {
		io.SetDie(int(port), i, c.Word())
		if i == bdIdx && c.Part == wire.Tail && p.bcaT.armed {
			// The target has forwarded the BD tail: release KILL and
			// ACK (mirroring RCA step 4).
			p.bcaTargetRelease()
		}
	}
}

// emitGrowAt broadcasts a growing-snake emission through every wired
// out-port; idx is the kind's dense index.
func (p *Processor) emitGrowAt(io *sim.Ports, g snake.GrowOut, idx int) {
	if !g.Has {
		return
	}
	for port := 1; port <= p.delta(); port++ {
		if p.info.outWired(port) {
			io.SetGrow(port, idx, g.On(port))
		}
	}
}

// broadcastKill emits the KILL token through every wired out-port.
func (p *Processor) broadcastKill(io *sim.Ports) {
	for port := 1; port <= p.delta(); port++ {
		if p.info.outWired(port) {
			io.SetKill(port)
		}
	}
}
