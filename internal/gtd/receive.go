package gtd

import (
	"topomap/internal/snake"
	"topomap/internal/wire"
)

// receiveGrow routes an arriving growing-snake character of dense kind
// index i, as its packed word with the ∗ entry already rewritten: relays
// queue the word as it came, the initiators unpack it.
func (p *Processor) receiveGrow(i int, w uint16, port uint8) {
	switch i {
	case igIdx:
		if p.info.root {
			// RCA step 2: the root accepts the first IG snake and
			// converts it to the OG broadcast; the relay's
			// visited/parent logic implements "closes itself off
			// to all other IG-snakes". A sealed converter (KILL
			// passed; conversion complete) drops stragglers.
			if !p.root.sealed {
				p.root.conv.Receive(w, port)
				p.live |= liveRootConv
			}
			return
		}
		if p.rca.phase != rcaIdle {
			// The initiator is deaf to its own flood.
			return
		}
		p.grow[igIdx].Receive(w, port)
		p.live |= liveGrow0

	case ogIdx:
		if p.info.root {
			// The root drops its own OG flood.
			return
		}
		if p.rca.phase != rcaIdle {
			p.rcaReceiveOG(snake.CharOf(w), port)
			return
		}
		p.grow[ogIdx].Receive(w, port)
		p.live |= liveGrow1

	case bgIdx:
		if p.bcaI.phase != biIdle {
			p.bcaReceiveBG(snake.CharOf(w), port)
			return
		}
		p.grow[bgIdx].Receive(w, port)
		p.live |= liveGrow2
	}
}

// rcaReceiveOG handles OG characters at an RCA initiator (step 3 at A).
func (p *Processor) rcaReceiveOG(c snake.Char, port uint8) {
	switch p.rca.phase {
	case rcaWaitOG:
		if c.Part != wire.Head {
			// A non-head can only be a straggler of a dead branch;
			// the winning wire always delivers a head first.
			return
		}
		// First surviving OG head: A closes itself to subsequent
		// OG-snakes, eats the head as an ID head (predecessor :=
		// arrival port, successor := head's out entry) and converts
		// the rest of the snake.
		p.marks.setSlot1(port, c.Out)
		p.rca.srcPort = port
		p.rca.conv.Arm(p.cfg.SnakeDelay, c.Out, false, wire.PayloadNone)
		p.live |= liveRCAConv
		p.rca.phase = rcaConverting
	case rcaConverting:
		if port == p.rca.srcPort && !p.rca.conv.Done() {
			if p.rca.conv.Receive(c) {
				// The OG snake has been fully consumed: both
				// the IG stream (long since absorbed by the
				// root) and the OG stream are done, so every
				// growing snake in the network is useless.
				// Release the KILL now — far ahead of the
				// paper's step-4 release, which stays in place
				// as a second sweep — so the cleanup chase has
				// ample slack even on short marked loops.
				p.scratch.killNow = true
			}
		}
		// Characters of other OG snakes are ignored (A is closed).
	default:
		// Stragglers after the conversion completed are ignored; the
		// KILL wave is eradicating them.
	}
}

// bcaReceiveBG handles BG characters at a BCA initiator B.
func (p *Processor) bcaReceiveBG(c snake.Char, port uint8) {
	switch p.bcaI.phase {
	case biWaitReturn:
		if port != p.bcaI.targetPort {
			// B accepts its flood back only through the designated
			// in-port; everything else is dropped (B is also deaf
			// as the flood's initiator).
			return
		}
		if c.Part != wire.Head {
			return
		}
		// The loop B→…→A→B is found: B's predecessor is the
		// designated in-port, its successor the head's out entry.
		p.marks.setSlot1(port, c.Out)
		p.bcaI.conv.Arm(p.cfg.SnakeDelay, c.Out, true, p.bcaI.payload)
		p.live |= liveBCAConv
		p.bcaI.phase = biConverting
	case biConverting:
		if port == p.bcaI.targetPort && !p.bcaI.conv.Done() {
			if p.bcaI.conv.Receive(c) {
				// The BG snake has been fully consumed: the
				// flood is useless; release the KILL early
				// (mirror of the RCA's early release).
				p.scratch.killNow = true
			}
		}
	case biMarked:
		// Stragglers; ignored.
	}
}

// receiveDie routes an arriving dying-snake character of dense kind index i.
func (p *Processor) receiveDie(i int, c snake.Char, port uint8) {
	switch i {
	case idIdx:
		if p.info.root {
			p.rootReceiveID(c, port)
			return
		}
		p.live |= liveDie0
		if ev, ok := p.die[0].Receive(c, port); ok {
			p.marks.setSlot1(ev.Pred, ev.Succ)
		}

	case odIdx:
		if p.rca.phase == rcaConverting {
			// RCA step 3 completion at A: only the OD tail ever
			// reaches the initiator.
			if c.Part != wire.Tail {
				panic("gtd: OD non-tail character reached the RCA initiator")
			}
			if port != p.marks.pred1 {
				panic("gtd: OD tail arrived off the marked loop")
			}
			p.rcaRelease()
			return
		}
		p.live |= liveDie1
		if ev, ok := p.die[1].Receive(c, port); ok {
			p.marks.setSlot2(ev.Pred, ev.Succ)
		}

	case bdIdx:
		if p.bcaI.phase == biConverting || p.bcaI.phase == biMarked {
			if port == p.bcaI.targetPort {
				// The BD tail re-entering B: the loop is fully
				// marked. B releases a KILL token of its own:
				// the BG residue chains are rooted at B, so a
				// KILL entering them anywhere else could miss
				// branches (the target's KILL alone does not
				// suffice; see DESIGN.md choice 1).
				if c.Part != wire.Tail {
					panic("gtd: BD non-tail character re-entered the BCA initiator")
				}
				p.bcaI.phase = biMarked
				p.scratch.killNow = true
				return
			}
		}
		p.live |= liveDie2
		if ev, ok := p.die[2].Receive(c, port); ok {
			p.marks.setSlot1(ev.Pred, ev.Succ)
			if ev.Flag {
				// This processor is the BCA target: the payload
				// has been delivered (design choice 1).
				p.bcaT.armed = true
				p.bcaT.payload = ev.Payload
				p.cfg.hook(p.node(), EvBCADelivered, int(ev.Payload))
			}
		}
	}
}

// rootReceiveID handles ID characters at the root (RCA step 3: conversion to
// the OD snake).
func (p *Processor) rootReceiveID(c snake.Char, port uint8) {
	if !p.root.idActive {
		if c.Part != wire.Head {
			panic("gtd: ID stream reached the root without a head")
		}
		// The root sets predecessor in-port #1 and successor out-port
		// #2 (§2.3.3) and converts the rest of the snake to OD.
		p.marks.setRootJoin(port, c.Out)
		p.root.idActive = true
		p.root.idSrc = port
		p.root.odConv.Arm(p.cfg.SnakeDelay, c.Out, false, wire.PayloadNone)
		p.live |= liveODConv
		return
	}
	if port != p.root.idSrc {
		panic("gtd: second ID snake at the root")
	}
	if !p.root.odConv.Done() {
		p.root.odConv.Receive(c)
	}
}

// receiveLoop handles an arriving loop token: absorption at its creator, or
// relaying along the marked loop.
func (p *Processor) receiveLoop(t wire.LoopToken, port uint8) {
	switch {
	// RCA step 4→5 at A: the FORWARD/BACK token returns.
	case p.rca.phase == rcaWaitLoopReturn &&
		(t.Type == wire.LoopForward || t.Type == wire.LoopBack) &&
		port == p.marks.pred1:
		p.cfg.hook(p.node(), EvLoopReturn, int(t.Type))
		p.rca.phase = rcaWaitUnmark
		p.createLoopToken(wire.LoopToken{Type: wire.LoopUnmark}, p.marks.succ1)

	// RCA step 5 completion at A.
	case p.rca.phase == rcaWaitUnmark && t.Type == wire.LoopUnmark && port == p.marks.pred1:
		p.marks.clearAll()
		p.rca.phase = rcaIdle
		p.rca.conv.Disarm()
		p.cfg.hook(p.node(), EvRCADone, 0)
		p.rcaComplete()

	// BCA: the ACK returns to the target.
	case p.bcaT.phase == btWaitAck && t.Type == wire.LoopAck && port == p.marks.pred1:
		p.cfg.hook(p.node(), EvLoopReturn, int(t.Type))
		p.bcaT.phase = btWaitUnmark
		p.createLoopToken(wire.LoopToken{Type: wire.LoopUnmark}, p.marks.succ1)

	// BCA completion at the target.
	case p.bcaT.phase == btWaitUnmark && t.Type == wire.LoopUnmark && port == p.marks.pred1:
		p.marks.clearAll()
		p.bcaT.phase = btIdle
		payload := p.bcaT.payload
		p.bcaT.payload = wire.PayloadNone
		p.cfg.hook(p.node(), EvBCADone, 0)
		p.bcaTargetComplete(payload)

	default:
		// Loop member: relay along the marked loop.
		if p.bcaI.phase == biMarked && t.Type == wire.LoopUnmark && port == p.marks.pred1 {
			// B's transaction closes as the UNMARK passes through.
			p.bcaI.phase = biIdle
			p.bcaI.conv.Disarm()
		}
		isRootJunction := p.marks.rootJoin
		p.marks.relay(t, port, p.cfg.loopSpeedDelay(t.Type))
		p.live |= liveMarks
		if isRootJunction && t.Type == wire.LoopUnmark {
			// RCA step 5: the root reopens itself to IG-snakes.
			p.rootReset()
		}
	}
}

// rootReset clears the root's RCA state when the UNMARK token passes.
func (p *Processor) rootReset() {
	if p.root.conv.Busy() {
		panic("gtd: root IG→OG conversion still draining at UNMARK")
	}
	p.root.conv = snake.NewGrowRelay(p.cfg.SnakeDelay)
	p.root.sealed = false
	p.root.idActive = false
	p.root.idSrc = 0
	p.root.odConv.Disarm()
}

// receiveDFS handles the depth-first-search token arriving through a forward
// edge (§3). outP is the sender's out-port recorded in the token; port is
// the receiving in-port.
func (p *Processor) receiveDFS(outP, port uint8) {
	p.cfg.hook(p.node(), EvDFSForwardArrival, int(outP))
	if p.info.root {
		// A forward arrival at the root is always a revisit. The
		// root's master computer observes it directly from the
		// transcript, so no RCA is run (design choice 2); the token
		// is immediately returned via the BCA.
		p.startBCA(port, wire.PayloadDFSReturn)
		return
	}
	if !p.dfs.visited {
		// First visit: mark the parent, then report FORWARD(i, j).
		p.dfs.visited = true
		p.dfs.parentIn = port
		p.dfs.afterRCA = afterAdvance
		p.startRCA(wire.LoopToken{Type: wire.LoopForward, Out: outP, In: port})
		return
	}
	// Revisit through a forward edge: report FORWARD(i, j), then hand the
	// token back via the BCA ("a processor never wants more than one
	// parent").
	p.dfs.backIn = port
	p.dfs.afterRCA = afterBCABack
	p.startRCA(wire.LoopToken{Type: wire.LoopForward, Out: outP, In: port})
}

// handleKill applies a KILL token: a processor holding growing-snake residue
// erases it and forwards the token through every out-port; a residue-free
// processor ignores it.
//
// The root's IG→OG converting relay counts as residue for FORWARDING
// purposes — the OG flood's chains are rooted at the root, and a KILL wave
// that never passes through the root could miss them entirely — but it is
// not erased: the paper reopens the root to IG-snakes only on UNMARK
// (step 5), never on KILL.
func (p *Processor) handleKill() {
	residue := false
	for i := range p.grow {
		if p.grow[i].HasResidue() {
			residue = true
			break
		}
	}
	if p.info.root && p.root.conv.Visited && !p.root.sealed {
		// Seal the converter (see rootState.sealed) and flush any
		// buffered characters — by the KILL's release point the
		// conversion is complete, so the pipeline holds nothing the
		// protocol still needs.
		p.root.sealed = true
		p.root.conv.FlushPipe()
		residue = true
	}
	if !residue {
		return
	}
	for i := range p.grow {
		p.grow[i].Kill()
	}
	if p.killPending < 0 {
		p.killPending = int8(p.cfg.KillDelay)
		p.live |= liveKill
	}
}
