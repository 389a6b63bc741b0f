package sim

// MemInfo is the engine's resident-memory accounting: the bytes its
// long-lived per-node and per-wire buffers pin, broken down by subsystem.
// It is deliberately separate from Stats — statistics are protocol
// observables covered by the determinism guarantee, memory is a property
// of the host — and is computed from buffer capacities, so it reports what
// is actually pinned, including slack retained across Resets.
type MemInfo struct {
	// WireBytes covers both packed wire-plane buffer sides (mask and
	// payload planes) plus the routing table and wired-port flags.
	WireBytes int64
	// StampBytes covers the four epoch-stamp planes.
	StampBytes int64
	// SchedBytes covers the scheduler state: the frontier buffer, the
	// next-frontier bitmap and its summary, timing wheel, holder cache,
	// automaton table, and the step context's δ-slot out plane.
	SchedBytes int64
	// TotalBytes is the sum of the above. It excludes the automata
	// themselves (owned by the factory; see gtd.Arena.FootprintBytes)
	// and the graph.
	TotalBytes int64
	// BytesPerNode is TotalBytes over the current node count.
	BytesPerNode float64
}

// Mem reports the engine's resident buffer footprint. It walks a fixed set
// of slice headers — no graph- or run-sized work — so it is safe to call
// between ticks or from a Progress poll.
func (e *Engine) Mem() MemInfo {
	var m MemInfo
	m.WireBytes = e.cur.bytes() + e.nxt.bytes() +
		int64(cap(e.route))*4

	m.StampBytes = int64(cap(e.hasStamp)+cap(e.nextHasStamp)+
		cap(e.wakeStamp)+cap(e.lastStep)) * 4

	const ptrSize = 8 // interface headers and slice elements on 64-bit targets
	m.SchedBytes = int64(cap(e.frontier)) * 4
	for i := range e.wheel {
		m.SchedBytes += int64(cap(e.wheel[i])) * 4
	}
	m.SchedBytes += int64(cap(e.holderBits)+cap(e.nextBits)+cap(e.nextSum)) * 8
	m.SchedBytes += int64(cap(e.procs)) * 2 * ptrSize
	m.SchedBytes += int64(cap(e.crashAt)) * ptrSize
	m.SchedBytes += e.io.out.bytes()

	m.TotalBytes = m.WireBytes + m.StampBytes + m.SchedBytes
	if n := e.g.N(); n > 0 {
		m.BytesPerNode = float64(m.TotalBytes) / float64(n)
	}
	return m
}

// bytes is the capacity the plane pins: 17 bytes per port slot.
func (pl *wirePlane) bytes() int64 {
	return int64(cap(pl.mask)+cap(pl.grow)+cap(pl.die)+cap(pl.loop))*2 + int64(cap(pl.dfs))
}
