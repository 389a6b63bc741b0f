package sim

import "math"

// FaultPlan injects hostile run conditions into an engine: probabilistic
// per-wire message loss and fail-stop node crashes. The paper assumes a
// perfectly reliable synchronous network; the fault layer exists to measure
// how the protocol *fails* outside that assumption (ROADMAP "hostile
// conditions", experiment E17) — cleanly (quiescent deadlock, tick-budget
// exhaustion) or wrongly (a silently incorrect map, which the fault suite
// asserts never happens).
//
// Fault injection preserves the engine's determinism guarantee in full: a
// drop decision is a pure hash of (Seed, tick, emitting node, out-port) —
// never a sequential RNG stream, so no decision depends on the order nodes
// step in — and a crash is a fixed (node, tick) pair. For a given plan, Run
// and RunOne, and dense and sparse mode, yield bit-identical transcripts,
// statistics (including Stats.Dropped), and failures.
type FaultPlan struct {
	// Seed parameterises the drop hash; two plans with different seeds
	// drop different (deterministic) message subsets at the same rate.
	Seed int64
	// DropRate is the probability that any single emitted non-blank symbol
	// is lost in flight: dropped after model validation, before delivery,
	// invisibly to both endpoints. 0 disables loss; 1 severs every wire.
	DropRate float64
	// Crashes lists fail-stop node failures: from the start of tick Tick
	// on, node Node neither steps nor emits, and symbols delivered to it
	// are swallowed. A crashed root can never terminate, so the run ends
	// in ErrDeadlock or ErrMaxTicks.
	Crashes []Crash
}

// Crash is one fail-stop node failure: Node is dead from tick Tick onward.
// A negative Tick means dead from the start.
type Crash struct {
	Node int
	Tick int
}

// dropBits is the hash precision of the drop decision: rates are resolved
// to dropBits-bit fixed point, exact for every float64 in [0, 1].
const dropBits = 53

// installFaults resolves the engine's fault plan for an n-node run: the
// drop-rate comparison bar and the per-node crash tick (never, for nodes
// without one). Called from ResetRooted so a session's plan re-arms on
// every reuse.
func (e *Engine) installFaults(n int) {
	f := e.opts.Faults
	e.faults = f
	e.dropBar = 0
	e.hasCrash = false
	if f == nil {
		return
	}
	if f.DropRate > 0 {
		r := f.DropRate
		if r > 1 {
			r = 1
		}
		e.dropBar = uint64(r * (1 << dropBits))
	}
	if len(f.Crashes) == 0 {
		return
	}
	e.crashAt = sized(e.crashAt, n)
	for v := range e.crashAt {
		e.crashAt[v] = math.MaxInt
	}
	for _, c := range f.Crashes {
		if c.Node < 0 || c.Node >= n {
			continue
		}
		t := c.Tick
		if t < 0 {
			t = 0
		}
		if t < e.crashAt[c.Node] {
			e.crashAt[c.Node] = t
			e.hasCrash = true
		}
	}
}

// SetFaults replaces the engine's fault plan. It takes effect at the next
// Reset/ResetRooted (plans are fixed for a run in flight); fault tests use
// it to clear injected faults and assert a reused engine recovers exactly.
func (e *Engine) SetFaults(f *FaultPlan) { e.opts.Faults = f }

// crashed reports whether node v is dead at the tick in flight.
func (e *Engine) crashed(v int) bool {
	return e.hasCrash && e.tick >= e.crashAt[v]
}

// dropped decides the fate of the symbol node v emits on out-port p (0-based)
// this tick: a pure splitmix64-style hash of (seed, tick, v, p), so the
// decision is identical whichever path performs the emission.
func (e *Engine) dropped(v, p int) bool {
	h := uint64(e.faults.Seed)
	h = mix64(h ^ uint64(e.tick)*0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(v)*0xbf58476d1ce4e5b9 ^ uint64(p)*0x94d049bb133111eb)
	return h>>(64-dropBits) < e.dropBar
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// purgeCrashWakes voids the pending timing-wheel wakes of nodes whose crash
// tick has arrived, so a dead node's parked hold cannot keep wheelLive — and
// with it the quiescence check — pinned for up to MaxHold extra ticks that
// the dense reference path would not run. Idempotent (a purged stamp is 0)
// and O(len(Crashes)); called at the top of every tick while a crash plan is
// installed.
func (e *Engine) purgeCrashWakes() {
	for _, c := range e.faults.Crashes {
		v := c.Node
		if v < 0 || v >= len(e.wakeStamp) || e.tick < e.crashAt[v] {
			continue
		}
		if e.wakeStamp[v] != 0 {
			e.wakeStamp[v] = 0
			e.wheelLive--
		}
	}
}
