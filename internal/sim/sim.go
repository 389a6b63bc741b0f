// Package sim is the synchronous network substrate of the paper's model
// (§1.1): a global clock, identical processors that within a single pulse
// read all in-ports, change state, and write all out-ports, and
// unidirectional wires each carrying one constant-size symbol per tick.
// Wire state lives in packed struct-of-arrays planes (plane.go), and a
// processor's pulse reads and writes them directly through a Ports view:
// its in side is the node's slots of the tick-t plane, its out side a δ-slot
// plane the engine routes into tick t+1. Quiescent processors write nothing
// (the blank character). wire.Message is materialised only for the root's
// transcript, Options.Validate and PendingIn. The engine is deterministic:
// given the same graph and automata it produces the same transcript every
// run.
//
// # Sparse frontier scheduling
//
// Goldstein's protocol keeps only a handful of processors non-quiescent per
// pulse (§2, Lemma 4.4), so each tick steps a sparse frontier instead of all
// N nodes: the processors holding a symbol delivered at t-1 plus those
// stepped at t-1 that still report Busy(). Each is marked in a
// one-bit-per-node bitmap as it is scheduled (a second mark is a no-op), and
// the tick boundary reads the marks back out in ascending order through a
// summary level with one bit per non-zero bitmap word, so a tick costs
// O(active + N/4096) and needs no sort. Naive mode steps every processor
// every tick (the dense reference path); the two are tested to produce
// identical transcripts, statistics, and failures.
//
// # One goroutine, bursts, and hold timers
//
// The engine steps every tick on the calling goroutine, frontier nodes in
// ascending index order, so each observable — transcript, statistics,
// protocol hook order, failure — is a function of the graph, the automata
// and the options alone. Run executes ticks back to back in one loop
// (a burst) with no per-tick dispatch; RunOne executes a single tick and
// shares every line of state evolution with it. Automata implementing
// Holder report how long they are dormant; the engine parks them on a
// timing wheel, replays the skipped aging in bulk, and collapses globally
// idle ticks into an O(1) clock advance. There is no worker pool: the
// frontier of the benchmark's networks stays far below the width at which
// sharding a tick across cores paid (DESIGN.md §2.1), and the service
// layer scales across engines instead, one per mapping session.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"topomap/internal/graph"
	"topomap/internal/wire"
)

// NodeInfo describes a processor's local, constant-size knowledge: whether it
// is the root, the degree bound, and which of its ports are wired (in-port
// and out-port awareness, §1.2.1), as per-direction bitmasks (ports are
// bounded by wire.MaxDelta, so 32 bits suffice and the struct carries no
// references). Index identifies the node for instrumentation and debugging
// only — protocol logic must never branch on it, since the paper's
// processors are anonymous.
type NodeInfo struct {
	Index int
	Root  bool
	Delta int
	InW   uint32 // bit p-1 set ⇔ in-port p is wired
	OutW  uint32 // bit p-1 set ⇔ out-port p is wired
}

// InWired reports whether in-port p (1-based) is wired.
func (i NodeInfo) InWired(p int) bool { return i.InW&(1<<(p-1)) != 0 }

// OutWired reports whether out-port p (1-based) is wired.
func (i NodeInfo) OutWired(p int) bool { return i.OutW&(1<<(p-1)) != 0 }

// Automaton is one finite-state communication processor.
type Automaton interface {
	// Step advances the processor by one global clock tick. It reads
	// in-port p through io's In* accessors (a zero mask word is the blank
	// symbol of a quiescent or unwired port) and writes out-port p through
	// its Set* methods; the out side starts blank and the view is valid
	// only during the call. Step must be deterministic.
	//
	// An engine calls Step on the goroutine that called Run or RunOne,
	// one processor at a time, in ascending node order within a tick, so
	// state shared across one engine's automata (such as an
	// instrumentation callback) needs no synchronisation. Automata shared
	// across engines that run concurrently must synchronise themselves.
	Step(io *Ports)
	// Busy reports whether the processor may change state or emit a
	// non-blank symbol even if every in-port reads blank. A processor
	// that is not busy and receives only blanks is skipped by the sparse
	// frontier scheduler; by contract its Step would have been a no-op
	// emitting blanks.
	//
	// The frontier scheduler relies on a strict contract here:
	//
	//  1. Busy must be a pure, deterministic function of the automaton's
	//     state — no clocks, randomness, or I/O.
	//  2. That state may change only inside Step. The engine reads Busy
	//     immediately after a node's Step to decide whether to schedule
	//     it for the next tick; a processor whose busyness could flip
	//     between ticks without being stepped would silently stall under
	//     sparse scheduling (the dense Naive mode would still catch it —
	//     the equivalence suite exists to detect exactly this class of
	//     bug). External arming of an automaton (e.g. gtd.StartRCA) is
	//     legal only before the run's first tick, or between ticks when
	//     paired with Engine.Wake.
	//  3. A processor that is not busy and is stepped with all-blank
	//     inputs must leave its state unchanged and emit only blanks, so
	//     skipping that step is unobservable.
	Busy() bool
}

// Terminator is implemented by root automata that reach the paper's special
// terminal state.
type Terminator interface {
	Terminated() bool
}

// TranscriptEntry is one tick of the root's I/O transcript: everything the
// root's master computer is allowed to see (§1.2.1). The In/Out slices are
// owned by the engine and reused every tick: they are valid only until the
// Transcript callback returns, and a consumer that retains them must copy.
type TranscriptEntry struct {
	Tick int
	In   []wire.Message // by in-port, index p-1
	Out  []wire.Message // by out-port, index p-1
}

// Observer receives a callback after every tick. Observers fire on every
// tick boundary, whether Run or RunOne drives the engine: a burst and the
// clock-jump over globally idle ticks both invoke AfterTick once per tick,
// in order, with the engine's Tick and Stats consistent.
type Observer interface {
	AfterTick(t int, e *Engine)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(t int, e *Engine)

// AfterTick implements Observer.
func (f ObserverFunc) AfterTick(t int, e *Engine) { f(t, e) }

// MaxHold caps the hold a Holder may report: an automaton sleeping longer
// than this is woken (at most) every MaxHold+1 ticks to re-report. The cap
// bounds the timing-wheel span; protocol holds (snake pipeline delays, token
// residence, KILL residue) are all well below it.
const MaxHold = 14

// wheelSlots is the timing-wheel ring size; it must exceed MaxHold+1 so a
// scheduled wake never collides with an older lap of the ring.
const wheelSlots = 16

// Holder is implemented by automata that can report scheduling needs more
// precisely than the boolean Busy: the paper's speed mechanics make a busy
// processor often *dormant* — e.g. a relay holding a speed-1 character acts
// only every third tick. Hold lets the sparse frontier scheduler skip the
// intervening no-op steps entirely; a timing wheel re-schedules the node
// when its hold expires, and AdvanceHold replays the skipped aging in bulk
// just before the next Step.
//
// The engine consults Hold (instead of Busy) right after each Step of an
// implementing automaton under sparse scheduling. The contract extends the
// Busy contract of Automaton:
//
//  1. Hold() < 0 must hold exactly when Busy() is false.
//  2. Hold() == k ≥ 0 promises that, fed all-blank inputs, the automaton's
//     Steps for the next k ticks would be no-ops that emit nothing and
//     change nothing except internal timers (pipeline ages, residual
//     holds), and that Busy stays true throughout. The engine then steps
//     the node again k+1 ticks later (or earlier, if a symbol is
//     delivered to it first). k is clamped to MaxHold; reporting a
//     smaller k than possible is always safe, a larger one never is.
//  3. AdvanceHold(n) must apply exactly the timer aging those n skipped
//     all-blank ticks would have applied, for any n ≤ the last reported
//     hold. The engine calls it (with n = skipped ticks) immediately
//     before the Step that ends a skip; an automaton that was quiescent
//     at its last step may also receive the call with arbitrary n, which
//     must then be a no-op.
//
// Automata that do not implement Holder are scheduled from Busy alone, every
// tick while busy, exactly as before.
type Holder interface {
	Hold() int
	AdvanceHold(n int)
}

// Options configures an Engine.
type Options struct {
	// Root is the index of the root processor. Default 0.
	Root int
	// MaxTicks aborts the run if the root has not terminated in time.
	// Default 0 means a generous automatic bound of
	// 64·N·(D-proxy)+4096 where the D-proxy is N (since D is unknown
	// without an extra pass); callers running experiments set it
	// explicitly.
	MaxTicks int
	// Naive disables sparse frontier scheduling: every processor steps
	// every tick and the quiescence check sweeps all nodes. It is the
	// dense reference path used by tests and E14 to validate the
	// frontier scheduler.
	Naive bool
	// Validate runs wire.Message.Validate on every emitted symbol and
	// panics on violation (debug mode).
	Validate bool
	// Transcript, if non-nil, receives every tick on which the root read
	// or wrote a non-blank symbol, in order.
	Transcript func(TranscriptEntry)
	// Observers are invoked after every tick in order.
	Observers []Observer
	// StopWhenQuiescent makes Run return successfully when the network
	// reaches global quiescence (no busy processors, no in-flight
	// symbols) even if the root has no terminal state. Used by
	// standalone-primitive demos and tests.
	StopWhenQuiescent bool
	// RetainPool is ignored: the engine has no worker pool to retain.
	//
	// Deprecated: kept so existing callers compile; it has no effect.
	RetainPool bool
	// Cancel, if non-nil, is polled by Run before every tick; when it
	// returns a non-nil error the run stops with that error (wrapped).
	// The engine remains resettable afterwards. Sessions wire a
	// context.Context's Err here for prompt batch cancellation.
	Cancel func() error
	// Faults, if non-nil, injects deterministic message loss and node
	// crashes (see FaultPlan). The plan is re-armed on every Reset; faults
	// preserve the determinism guarantee across Run and RunOne and across
	// dense and sparse scheduling.
	Faults *FaultPlan
}

// Stats summarises a run. Ticks, NonBlankMessages, StepCalls, MaxActive, and
// Dropped are protocol observables covered by the determinism guarantee:
// identical whether Run or RunOne drives the engine, and under dense or
// sparse scheduling. SeqTicks, ParTicks, and Bursts are inert telemetry
// left from the removed worker pool.
type Stats struct {
	Ticks            int
	NonBlankMessages int64 // total non-blank symbols delivered
	StepCalls        int64 // automaton steps executed
	MaxActive        int   // peak simultaneously active processors
	Dropped          int64 // symbols lost to fault injection (0 without a plan)

	// Deprecated: equals Ticks; every tick runs on the calling goroutine.
	SeqTicks int64
	// Deprecated: always 0; no tick is fanned out.
	ParTicks int64
	// Deprecated: counts calls of Run that found the run unfinished (one
	// per run); RunOne never counts.
	Bursts int64
}

// Observables returns s with the inert telemetry fields zeroed.
//
// Deprecated: compare the protocol fields directly.
func (s Stats) Observables() Stats {
	s.SeqTicks, s.ParTicks, s.Bursts = 0, 0, 0
	return s
}

// Progress is a cheap point-in-time snapshot of a run, safe to take from an
// Observer at any tick boundary: how far the run has advanced (Tick), how
// much of the network is instantaneously active (Frontier — the size of the
// next tick's frontier; 0 under Naive scheduling, where no frontier is
// maintained), and the protocol counters so far. The service layer streams
// these to clients as per-job progress events.
type Progress struct {
	Tick     int
	Frontier int
	Messages int64
	Steps    int64
	// PlaneCap is the allocated capacity (in port slots) of one wire-plane
	// buffer side: the engine's resident-capacity gauge. It changes only
	// when a Reset grows the planes, so tests assert buffer reuse with it.
	PlaneCap int
}

// Progress returns a snapshot of the run in flight. It costs a few loads and
// allocates nothing; between ticks it reflects the last completed tick.
func (e *Engine) Progress() Progress {
	return Progress{
		Tick:     e.tick,
		Frontier: len(e.frontier),
		Messages: e.stats.NonBlankMessages,
		Steps:    e.stats.StepCalls,
		PlaneCap: cap(e.cur.mask),
	}
}

// Engine executes a network of automata in lockstep over a graph. An engine
// is reusable: Reset re-targets it at a new graph (or the same one) while
// recycling every node, wire, and frontier buffer, so steady-state reruns
// allocate nothing in the engine layer.
type Engine struct {
	g       *graph.Graph
	opts    Options
	factory func(NodeInfo) Automaton
	// autoMaxTicks records that Options.MaxTicks was defaulted from the
	// node count, so Reset recomputes it for the new graph.
	autoMaxTicks bool
	procs        []Automaton
	delta        int
	sparse       bool // frontier scheduling (== !opts.Naive)

	// Routing table: for node v, out-port p (0-based), route[v·δ+p] packs
	// the destination as node<<8 | in-port (0-based), or unrouted. One
	// word per wire instead of a 16-byte Endpoint; the 24-bit node field
	// caps the engine at 1<<24 nodes (enforced by ResetRooted).
	route []uint32

	// Wire state, double-buffered and packed (see wirePlane): cur holds
	// the symbols delivered for the tick in flight, nxt accumulates
	// deliveries for tick t+1; finishTick swaps them by value, so io keeps
	// pointing at cur.
	cur wirePlane
	nxt wirePlane

	// Epoch-stamped activity planes, never cleared between ticks (a stale
	// epoch never matches): hasStamp[v] == epoch when v holds a symbol
	// delivered last tick; nextHasStamp[v] == epoch+1 when v was delivered
	// one this tick (swapped with hasStamp per tick). The first write per
	// (node, tick) does the bookkeeping. When the 32-bit epoch reaches
	// epochLimit (defaultEpochLimit; tests lower it), rebaseEpochs
	// translates every plane down, preserving all relative distances.
	hasStamp     []uint32
	nextHasStamp []uint32
	epoch        uint32
	epochLimit   uint32

	// The frontier: frontier lists the nodes to step this tick in
	// ascending order, without duplicates. Next tick's is a bitmap —
	// nextBits has bit v set when v is scheduled, nextSum bit w when
	// nextBits[w] is non-zero — that promoteFrontier reads out in
	// ascending order and clears, so it is all zero between ticks.
	frontier []int32
	nextBits []uint64
	nextSum  []uint64

	// The timing wheel parks dormant-but-busy Holder nodes in the slot of
	// their wake tick. wakeStamp[v] is the epoch v's single pending wake
	// is due (0 = none; a mismatch at promote time marks a stale entry,
	// dropped). wheelLive counts live wakes: sparse quiescence is an empty
	// frontier and an empty wheel. holderBits marks Holder automata (the
	// interface is re-asserted at step time; caching it would cost 16
	// bytes/node); lastStep is each node's last stepped epoch, for the
	// bulk AdvanceHold replay.
	wheel      [wheelSlots][]int32
	wakeStamp  []uint32
	wheelLive  int
	holderBits []uint64
	lastStep   []uint32

	// rootTerm caches the root automaton's Terminator interface (nil if
	// not implemented), so the per-tick terminal check is a nil test
	// rather than a type assertion.
	rootTerm Terminator
	// seeded records that the initial frontier — every processor that
	// reports Busy() before the first tick — has been collected. Seeding
	// is deferred to the first tick so automata may be armed (e.g.
	// gtd.StartRCA) between construction and Run.
	seeded bool

	// Root transcript capture, reused every tick: rootLive reports that
	// the tick in flight filled rootIn/rootOut.
	rootIn, rootOut []wire.Message
	rootLive        bool

	// Resolved fault plan (see faults.go): the drop comparison bar, the
	// per-node crash tick (math.MaxInt = never), and whether any crash is
	// scheduled at all (the per-node hot-path guard).
	faults   *FaultPlan
	dropBar  uint64
	hasCrash bool
	crashAt  []int

	// The step context every node's pulse runs through: io is the Ports
	// view (its out plane is kept blank between steps; stepNode clears the
	// masks it routed), lives counts the nodes first-delivered a symbol
	// this tick, and anyActive records that a genuinely active node
	// stepped — the two tick tallies finishTick consumes.
	io        Ports
	lives     int
	anyActive bool

	tick  int
	stats Stats
	done  bool
}

// Errors returned by Run.
var (
	// ErrMaxTicks indicates the tick budget was exhausted before the root
	// terminated: either the protocol is stuck or the budget is too small.
	ErrMaxTicks = errors.New("sim: maximum tick count exceeded before termination")
	// ErrDeadlock indicates global quiescence was reached while the root
	// had not terminated and StopWhenQuiescent was not set.
	ErrDeadlock = errors.New("sim: network quiescent before root terminated")
)

// Resettable is implemented by automata that can be re-initialised in place
// for a new run. Engine.Reset calls Reset instead of the construction
// factory for nodes whose automaton implements it, which keeps the
// steady-state of a reused engine allocation-free; other automata are
// rebuilt through the factory.
type Resettable interface {
	Reset(info NodeInfo)
}

// New builds an engine over g; factory is called once per node, in index
// order, to construct its automaton. The graph is not modified and must not
// change during the run. The factory is retained for Reset.
func New(g *graph.Graph, opts Options, factory func(NodeInfo) Automaton) *Engine {
	e := &Engine{opts: opts, factory: factory, autoMaxTicks: opts.MaxTicks <= 0,
		epochLimit: defaultEpochLimit}
	e.ResetRooted(g, opts.Root)
	return e
}

// Reset re-targets the engine at g for a fresh run, recycling the node,
// wire, frontier, and transcript buffers (growing them only when g
// needs more capacity) and re-initialising automata in place when they
// implement Resettable. Every option — root, tick budget (recomputed when it
// was defaulted), callbacks — is retained. The reused engine is
// observationally identical to a fresh New: transcripts, statistics, and
// failures are bit-for-bit the same.
func (e *Engine) Reset(g *graph.Graph) { e.ResetRooted(g, e.opts.Root) }

// ResetRooted is Reset with a new root index, for harnesses sweeping roots.
func (e *Engine) ResetRooted(g *graph.Graph, root int) {
	n := g.N()
	delta := g.Delta()
	if n >= MaxNodes {
		panic(fmt.Sprintf("sim: %d nodes exceeds the engine limit (%d)", n, MaxNodes))
	}
	if delta > wire.MaxDelta {
		panic(fmt.Sprintf("sim: degree bound %d exceeds wire.MaxDelta (%d)", delta, wire.MaxDelta))
	}
	e.g = g
	e.delta = delta
	e.sparse = !e.opts.Naive
	e.opts.Root = root
	if e.autoMaxTicks {
		e.opts.MaxTicks = 64*n*n + 4096
	}

	e.resizeBuffers(n, delta)
	e.io.in = &e.cur
	e.io.out.resize(delta)
	e.installFaults(n)

	for v := 0; v < n; v++ {
		info := NodeInfo{
			Index: v,
			Root:  v == root,
			Delta: delta,
		}
		for p := 1; p <= delta; p++ {
			if ep, ok := g.OutEndpoint(v, p); ok {
				info.OutW |= 1 << (p - 1)
				e.route[v*delta+p-1] = uint32(ep.Node)<<8 | uint32(ep.Port-1)
			} else {
				e.route[v*delta+p-1] = unrouted
			}
			if _, ok := g.InEndpoint(v, p); ok {
				info.InW |= 1 << (p - 1)
			}
		}
		if r, ok := e.procs[v].(Resettable); ok {
			r.Reset(info)
		} else {
			e.procs[v] = e.factory(info)
		}
		if _, ok := e.procs[v].(Holder); ok {
			e.holderBits[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	e.rootTerm, _ = e.procs[root].(Terminator)

	e.rootLive = false
	e.epoch = 1
	e.frontier = e.frontier[:0]
	for i := range e.wheel {
		e.wheel[i] = e.wheel[i][:0]
	}
	e.wheelLive = 0
	e.seeded = false
	e.tick = 0
	e.stats = Stats{}
	e.done = false
}

// resizeBuffers re-slices (or grows) every per-node buffer for n nodes of
// degree bound delta and zeroes the reused state.
func (e *Engine) resizeBuffers(n, delta int) {
	need := n * delta

	e.cur.resize(need)
	e.nxt.resize(need)

	e.route = sized(e.route, need)

	// Epoch stamps must be zeroed on reuse: the epoch counter restarts at
	// 1 every run, so a stale mark from a long previous run could
	// otherwise collide with a future epoch of this one.
	e.hasStamp = zeroed(e.hasStamp, n)
	e.nextHasStamp = zeroed(e.nextHasStamp, n)
	e.wakeStamp = zeroed(e.wakeStamp, n)
	e.lastStep = zeroed(e.lastStep, n)
	e.holderBits = zeroed(e.holderBits, (n+63)/64)
	// The next-frontier bitmap is clear between ticks, but a run that
	// panicked mid-tick can leave marks behind.
	e.nextBits = zeroed(e.nextBits, (n+63)/64)
	e.nextSum = zeroed(e.nextSum, (n+4095)/4096)

	// Keep automata from shrunken runs in the slice's spare capacity so a
	// later growth recovers (and resets) them instead of reconstructing.
	if cap(e.procs) >= n {
		e.procs = e.procs[:n]
	} else {
		old := e.procs
		e.procs = make([]Automaton, n)
		copy(e.procs, old[:cap(old)])
	}
}

// sized returns s with length n, reusing its capacity; kept elements keep
// their values.
func sized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// zeroed is sized with every element zero.
func zeroed[T any](s []T, n int) []T {
	s = sized(s, n)
	clear(s)
	return s
}

// Graph returns the engine's topology (read-only by convention).
func (e *Engine) Graph() *graph.Graph { return e.g }

// Tick returns the current global time (number of completed ticks).
func (e *Engine) Tick() int { return e.tick }

// Automaton returns the processor at the given node, for observers and
// instrumentation.
func (e *Engine) Automaton(v int) Automaton { return e.procs[v] }

// PendingIn returns the symbol that node v will read on in-port p (1-based)
// at the next tick: the message currently in flight on that wire,
// materialised from the packed planes. Observers use it to inspect
// traffic; the protocol never does.
func (e *Engine) PendingIn(v, p int) wire.Message {
	var m wire.Message
	e.cur.loadPort(v*e.delta+p-1, &m)
	return m
}

// Stats returns run statistics gathered so far.
func (e *Engine) Stats() Stats { return e.stats }

// FrontierLen returns the number of processors scheduled for the coming
// tick (the sparse frontier size). In Naive mode it reports 0 —
// the dense path has no frontier. Instrumentation only.
func (e *Engine) FrontierLen() int { return len(e.frontier) }

// Wake schedules node v for the coming tick even though the engine has not
// observed a delivery to it or a busy report from it. It is the escape
// hatch for harnesses that arm an automaton externally (e.g. gtd.StartRCA)
// *between* ticks of a run in flight: the frontier scheduler assumes
// automaton state changes only inside Step, so an externally armed node
// must be woken or it will not be scheduled until a symbol arrives.
//
// Wake is safe and idempotent for a node already scheduled for the coming
// tick — the binary search that places it in the sorted frontier finds it
// there, whether the node got there by delivery, by a busy re-enqueue, by a
// timing-wheel wake, or by an earlier Wake — and waking an idle node is
// harmless (its Step is a no-op by the Automaton contract). Wake must not
// be called while a tick is executing; tick boundaries inside a sequential
// burst are legal call sites (an Observer calling Wake mid-burst has the
// node stepped on the very next tick, exactly once — the burst loop
// re-reads the frontier every iteration). In Naive mode Wake is a no-op
// since every node steps anyway.
func (e *Engine) Wake(v int) {
	if !e.sparse || v < 0 || v >= e.g.N() {
		return
	}
	if !e.seeded {
		// The pre-run seed scan will pick the node up.
		return
	}
	if i, found := slices.BinarySearch(e.frontier, int32(v)); !found {
		e.frontier = slices.Insert(e.frontier, i, int32(v))
	}
}

// seedFrontier collects the initial frontier: every processor reporting
// Busy() before the first tick (in gtd, the kicked root and any externally
// armed standalone initiators). This is the one full scan of the sparse
// path, and it runs once per run, not per tick; it visits nodes in
// ascending order, so the frontier comes out sorted.
func (e *Engine) seedFrontier() {
	e.seeded = true
	if !e.sparse {
		return
	}
	for v := 0; v < e.g.N(); v++ {
		if e.procs[v].Busy() {
			e.frontier = append(e.frontier, int32(v))
		}
	}
}

// rootTerminated reports whether the root automaton has reached its terminal
// state.
func (e *Engine) rootTerminated() bool {
	return e.rootTerm != nil && e.rootTerm.Terminated()
}

// markDelivery records that dst was handed a non-blank symbol this tick:
// the first delivery counts dst toward the tick's live total, and under
// sparse scheduling dst joins the next frontier. A stale stamp never equals
// epoch+1 (epoch values written to a plane strictly increase), so each
// claim is idempotent per (node, tick).
func (e *Engine) markDelivery(dst int) {
	if next := e.epoch + 1; e.nextHasStamp[dst] != next {
		e.nextHasStamp[dst] = next
		e.lives++
	}
	if e.sparse {
		e.enqueueNext(dst)
	}
}

// enqueueNext puts v on the next frontier: it sets v's bit and its word's
// summary bit, so a node scheduled twice is marked once.
func (e *Engine) enqueueNext(v int) {
	e.nextBits[v>>6] |= 1 << (uint(v) & 63)
	e.nextSum[v>>12] |= 1 << (uint(v>>6) & 63)
}

// stepNode executes one processor's pulse: Step through the engine's Ports
// view, emission routing and delivery bookkeeping, root transcript capture,
// and consumed-plane clearing. All reads come from the tick-t planes (e.cur,
// e.hasStamp) and all wire writes target the tick-t+1 planes (e.nxt,
// e.nextHasStamp), so the order nodes step in within a tick changes no
// symbol. The out side's set slots are copied into e.nxt by route,
// mask-gated. Under sparse scheduling the node re-enqueues itself while it
// remains busy — the half of the frontier invariant that covers
// busy-without-input processors (e.g. relays holding a speed-1 character).
func (e *Engine) stepNode(v int, hasIn bool) {
	delta := e.delta
	base := v * delta
	if e.crashed(v) {
		// Fail-stop: the dead node neither steps nor emits, and symbols
		// delivered to it are swallowed (the mask plane is cleared; the
		// payloads behind it become unreachable). Any pending timing-wheel
		// wake is voided — the node will never re-park, so this happens at
		// most once per node.
		if hasIn {
			clear(e.cur.mask[base : base+delta])
		}
		if e.sparse && e.wakeStamp[v] != 0 {
			e.wakeStamp[v] = 0
			e.wheelLive--
		}
		return
	}
	var hld Holder
	if e.sparse {
		// Timing-wheel catch-up: a pending wake becomes stale the moment
		// the node is stepped (an earlier delivery beat the timer), and
		// aging skipped while the node was parked is replayed in bulk.
		// The Holder re-assertion is an itab-cache hit; only marked nodes
		// pay it.
		if e.holderBits[v>>6]&(1<<(uint(v)&63)) != 0 {
			hld = e.procs[v].(Holder)
			if e.wakeStamp[v] != 0 {
				e.wakeStamp[v] = 0
				e.wheelLive--
			}
			if last := e.lastStep[v]; last != 0 && e.epoch-last > 1 {
				hld.AdvanceHold(int(e.epoch - last - 1))
			}
			e.lastStep[v] = e.epoch
		}
	}
	io := &e.io
	io.base = base
	e.procs[v].Step(io)
	e.stats.StepCalls++
	out := &io.out
	nonBlankOut := false
	for p := 0; p < delta; p++ {
		if out.mask[p] == 0 {
			continue
		}
		nonBlankOut = true
		if e.opts.Validate {
			m := io.OutMessage(p + 1)
			if err := m.Validate(delta); err != nil {
				panic(fmt.Sprintf("sim: node %d tick %d out-port %d: %v", v, e.tick, p+1, err))
			}
		}
		dst := e.route[base+p]
		if dst == unrouted {
			panic(fmt.Sprintf("sim: node %d tick %d wrote to unwired out-port %d", v, e.tick, p+1))
		}
		if e.dropBar != 0 && e.dropped(v, p) {
			// Lost in flight: validated, then never delivered — the
			// emitter's transcript still records the write, the receiver
			// never learns of it.
			e.stats.Dropped++
			continue
		}
		dstNode := int(dst >> 8)
		e.nxt.copySlot(dstNode*delta+int(dst&0xff), out, p)
		e.markDelivery(dstNode)
		e.stats.NonBlankMessages++
	}
	if v == e.opts.Root && e.opts.Transcript != nil && (hasIn || nonBlankOut) {
		// hasIn holds exactly when some in-port carries a non-blank
		// symbol this tick. The buffers are engine-owned and reused every
		// tick (the callback may not retain them), so steady state
		// allocates nothing.
		e.rootIn, e.rootOut = e.rootIn[:0], e.rootOut[:0]
		for p := 1; p <= delta; p++ {
			e.rootIn = append(e.rootIn, io.InMessage(p))
			e.rootOut = append(e.rootOut, io.OutMessage(p))
		}
		e.rootLive = true
	}
	// Clear the consumed input slots and re-blank the out plane. Clearing
	// is mask-only — stale channel payloads are unreadable behind a clear
	// mask, and every consumer (including the transcript fingerprints)
	// goes through the mask.
	if hasIn {
		clear(e.cur.mask[base : base+delta])
	}
	if nonBlankOut {
		clear(out.mask)
	}
	if !e.sparse {
		return
	}
	// Re-schedule: a Holder reports its precise need (quiescent, next
	// tick, or a positive hold that parks it on the timing wheel); other
	// automata ride the frontier every tick they report Busy.
	if hld != nil {
		switch h := hld.Hold(); {
		case h < 0:
			// Quiescent: scheduled again only by a delivery.
		case h == 0:
			e.enqueueNext(v)
		default:
			if h > MaxHold {
				h = MaxHold
			}
			e.scheduleWake(v, h)
		}
	} else if e.procs[v].Busy() {
		e.enqueueNext(v)
	}
}

// scheduleWake parks v on the timing wheel, due h+1 ticks after the tick in
// flight.
func (e *Engine) scheduleWake(v, h int) {
	e.wakeStamp[v] = e.epoch + 1 + uint32(h)
	e.wheelLive++
	slot := (e.tick + 1 + h) % wheelSlots
	e.wheel[slot] = append(e.wheel[slot], int32(v))
}

// stepTick runs the pulse of the tick in flight, filling the tick tallies
// (e.lives, e.anyActive) for finishTick. Under sparse scheduling it steps
// the frontier: every frontier node is genuinely active by construction —
// it was delivered a symbol last tick, or it reported Busy() right after
// its previous step — so there is no per-node skip test and the work is
// exactly O(frontier). Naive mode steps every node, the paper's model taken
// literally: the dense reference the sparse scheduler is validated against,
// whose per-node activity test feeds the quiescence check only.
func (e *Engine) stepTick() {
	e.lives, e.anyActive = 0, false
	epoch := e.epoch
	if !e.sparse {
		for v := 0; v < e.g.N(); v++ {
			hasIn := e.hasStamp[v] == epoch
			if hasIn || (!e.crashed(v) && e.procs[v].Busy()) {
				e.anyActive = true
			}
			e.stepNode(v, hasIn)
		}
		return
	}
	if e.hasCrash {
		// With crashes, a frontier entry is not proof of activity: a dead
		// node enqueued by a stale wake or a swallowed delivery must not
		// hold off quiescence — the dense sweep would not count it either.
		for _, v := range e.frontier {
			hasIn := e.hasStamp[v] == epoch
			if hasIn || !e.crashed(int(v)) {
				e.anyActive = true
			}
			e.stepNode(int(v), hasIn)
		}
		return
	}
	for _, v := range e.frontier {
		e.stepNode(int(v), e.hasStamp[v] == epoch)
	}
	e.anyActive = len(e.frontier) > 0
}

// Close does nothing: the engine holds no goroutines or other resources
// beyond memory.
//
// Deprecated: kept so existing callers compile; there is nothing to
// release.
func (e *Engine) Close() {}

// epochBase is the epoch value rebaseEpochs restarts at. It exceeds the
// largest backward distance the stamp logic ever consults — lastStep is
// read up to MaxHold+1 epochs back (a parked holder's maximum skip) — so
// every live relative distance survives the translation exactly.
const epochBase = MaxHold + 2

// defaultEpochLimit leaves headroom below the uint32 ceiling for the
// forward stamps a tick writes (epoch+1+MaxHold at most).
const defaultEpochLimit = ^uint32(0) - 2*epochBase

// rebaseEpochs translates every stamp plane down so the epoch restarts at
// epochBase, making the 32-bit epoch wrap-safe for unbounded runs. Called
// immediately after an epoch increment that reached epochLimit, before the
// frontier promotion that matches wake stamps against the new epoch. Every
// consumer of the planes compares stamps for equality against epoch-derived
// values or reads differences no older than epochBase, and all live stamps
// lie in [epoch−epochBase, epoch+MaxHold], so shifting the live window and
// flooring everything older to 0 (the never-stamped value, which no future
// epoch can equal again) preserves each comparison bit for bit.
func (e *Engine) rebaseEpochs() {
	shift := e.epoch - epochBase
	for _, plane := range [][]uint32{e.hasStamp, e.nextHasStamp, e.wakeStamp, e.lastStep} {
		for i, s := range plane {
			if s > shift {
				plane[i] = s - shift
			} else {
				plane[i] = 0
			}
		}
	}
	e.epoch = epochBase
}

// promoteFrontier installs the frontier for the tick the engine has just
// advanced to: the deliveries and hold-0 re-enqueues marked last tick,
// merged with the timing-wheel slot now due. Stale wheel entries (their
// node was stepped early, invalidating the stamp) are dropped; live ones
// are marked like any other enqueue, so a node scheduled by both a
// delivery and a timer steps exactly once. The bitmap is then read out in
// ascending word order, visiting only the words the summary marks, and
// cleared as it is read: the frontier comes out sorted and duplicate-free.
func (e *Engine) promoteFrontier() {
	slot := &e.wheel[e.tick%wheelSlots]
	if len(*slot) > 0 {
		for _, v := range *slot {
			if e.wakeStamp[v] == e.epoch {
				e.wakeStamp[v] = 0
				e.wheelLive--
				e.enqueueNext(int(v))
			}
		}
		*slot = (*slot)[:0]
	}
	next := e.frontier[:0]
	for s, sum := range e.nextSum {
		if sum == 0 {
			continue
		}
		e.nextSum[s] = 0
		for sum != 0 {
			w := s<<6 | bits.TrailingZeros64(sum)
			sum &= sum - 1
			word := e.nextBits[w]
			e.nextBits[w] = 0
			for word != 0 {
				next = append(next, int32(w<<6|bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
	}
	e.frontier = next
}

// advanceClock moves the global clock to the next tick: the epoch (rebased
// when it reaches the limit), the tick counter, the frontier promotion, and
// the observers. finishTick and advanceIdleTick share it.
func (e *Engine) advanceClock() {
	e.epoch++
	if e.epoch >= e.epochLimit {
		e.rebaseEpochs()
	}
	e.tick++
	e.stats.Ticks = e.tick
	e.stats.SeqTicks++
	if e.sparse {
		e.promoteFrontier()
	}
	for _, ob := range e.opts.Observers {
		ob.AfterTick(e.tick-1, e)
	}
}

// finishTick closes the tick stepTick ran: root transcript delivery,
// activity accounting, plane swaps, the clock advance, and the quiescence
// check. It is shared verbatim by RunOne and Run's burst loop, which is
// what keeps the two bit-identical in their observables.
func (e *Engine) finishTick() (bool, error) {
	if e.rootLive {
		e.rootLive = false
		e.opts.Transcript(TranscriptEntry{Tick: e.tick, In: e.rootIn, Out: e.rootOut})
	}

	// The tick's live total was counted at delivery time (first stamp
	// writes), never by scanning nodes. Swap the wire and stamp planes and
	// advance the clock. Inputs consumed this tick were already cleared
	// node-locally in stepNode; the stamp planes need no clearing at all
	// (stale epochs never match).
	if e.lives > e.stats.MaxActive {
		e.stats.MaxActive = e.lives
	}
	e.cur, e.nxt = e.nxt, e.cur
	e.hasStamp, e.nextHasStamp = e.nextHasStamp, e.hasStamp
	e.advanceClock()

	// Quiescence: under sparse scheduling an empty next frontier with an
	// empty timing wheel *is* global quiescence (no symbol in flight, no
	// busy processor — busy nodes re-enqueue themselves or park a wake);
	// the dense path sweeps, as it must.
	quiet := !e.anyActive
	if quiet {
		if e.sparse {
			quiet = len(e.frontier) == 0 && e.wheelLive == 0
		} else {
			quiet = !e.anyPending()
		}
	}
	if quiet {
		e.done = true
		if e.opts.StopWhenQuiescent || e.rootTerminated() {
			return false, nil
		}
		return false, ErrDeadlock
	}
	return true, nil
}

// canTick runs the checks that precede every tick: it reports false, with
// the run's outcome, when the root has terminated or the tick budget is
// spent.
func (e *Engine) canTick() (bool, error) {
	if e.rootTerminated() {
		e.done = true
		return false, nil
	}
	if e.tick >= e.opts.MaxTicks {
		return false, fmt.Errorf("%w (tick %d)", ErrMaxTicks, e.tick)
	}
	return true, nil
}

// RunOne executes a single tick. It returns false when the run has finished
// (root terminal or quiescent-with-permission); callers normally use Run.
func (e *Engine) RunOne() (bool, error) {
	if e.done {
		return false, nil
	}
	if !e.seeded {
		e.seedFrontier()
	}
	if ok, err := e.canTick(); !ok {
		return false, err
	}
	if e.hasCrash {
		e.purgeCrashWakes()
	}
	e.stepTick()
	return e.finishTick()
}

// burstCancelInterval is how many ticks Run executes between Options.Cancel
// polls: bursts trade per-tick cancellation for loop overhead, keeping
// cancellation latency bounded by a few microseconds of simulated ticks.
const burstCancelInterval = 64

// anyPending reports whether any symbol is in flight or any processor busy:
// the Naive-mode quiescence sweep (the sparse path derives the same answer
// from the frontier).
func (e *Engine) anyPending() bool {
	for v := 0; v < e.g.N(); v++ {
		if e.hasStamp[v] == e.epoch || (!e.crashed(v) && e.procs[v].Busy()) {
			return true
		}
	}
	return false
}

// Run executes ticks until the root terminates, the network quiesces, the
// tick budget is exhausted, or Options.Cancel reports cancellation, and
// returns the statistics. The ticks run back to back in one loop on the
// calling goroutine (a burst), and globally idle ticks collapse to an O(1)
// clock advance; Observer and Transcript callbacks still fire on every tick
// boundary, and an Observer calling Wake is honoured on the very next tick
// (the frontier is re-read every iteration). State evolution is shared with
// RunOne (stepTick + finishTick), so Run changes wall-clock only, never an
// observable.
func (e *Engine) Run() (Stats, error) {
	cancel := e.opts.Cancel
	if cancel != nil {
		if err := cancel(); err != nil {
			return e.stats, fmt.Errorf("sim: run cancelled at tick %d: %w", e.tick, err)
		}
	}
	if e.done {
		return e.stats, nil
	}
	if !e.seeded {
		e.seedFrontier()
	}
	e.stats.Bursts++
	for n := 1; ; n++ {
		if ok, err := e.canTick(); !ok {
			return e.stats, err
		}
		if cancel != nil && n%burstCancelInterval == 0 {
			if err := cancel(); err != nil {
				return e.stats, fmt.Errorf("sim: run cancelled at tick %d: %w", e.tick, err)
			}
		}
		if e.hasCrash {
			// Void dead nodes' parked wakes before the idle check, or a
			// crash landing mid-stretch would keep the clock advancing
			// past the quiescence the dense path declares immediately.
			e.purgeCrashWakes()
		}
		if len(e.frontier) == 0 && e.wheelLive > 0 {
			// A globally idle tick — empty frontier, pending wheel wakes —
			// runs in O(1): no deliveries are outstanding, so the wire
			// planes are blank and the stamp planes stale on both sides,
			// and the clock advance is equivalent to the swaps a stepped
			// tick would perform. Observers still fire, the tick still
			// counts, and the due wheel slot is still promoted.
			e.advanceClock()
			continue
		}
		e.stepTick()
		if more, err := e.finishTick(); err != nil || !more {
			return e.stats, err
		}
	}
}
