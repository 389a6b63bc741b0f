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
// stepped at t-1 that still report Busy(), maintained incrementally and
// deduplicated by per-node epoch stamps, so a tick costs O(active). Naive
// mode steps every processor every tick (the dense reference path); the two
// are tested to produce identical transcripts, statistics, and failures.
//
// # Parallel execution, dispatch, and hold timers
//
// Within one tick every processor reads only tick-t symbols and writes only
// tick-t+1 symbols, and every in-port has exactly one incoming wire, so the
// ascending frontier splits into contiguous shards stepped by a worker pool
// with no two writers on one buffer element; the shared delivery and
// enqueue stamps are compare-and-swap claims whose single winner does the
// bookkeeping, and shard tallies merge in shard order, so every observable
// is bit-identical for any Options.Workers. A tick fans out when
// 1 < Workers ≤ GOMAXPROCS and its frontier holds at least
// parallelCrossover nodes (measured by E15); every other tick runs in a
// sequential burst on the calling goroutine. Automata implementing Holder
// report how long they are dormant; the engine parks them on a timing
// wheel, replays the skipped aging in bulk, and collapses globally idle
// ticks into an O(1) clock advance. Stats.SeqTicks/ParTicks/Bursts record
// what the dispatcher did.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

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
	// When Options.Workers enables the parallel tick, Step may be
	// invoked concurrently for *different* processors of the same pulse
	// (never twice for the same processor). Each automaton may freely
	// mutate its own state; any state shared across automata — such as
	// instrumentation callbacks reached from Step — must be synchronised
	// by whoever shares it (gtd.NewFactory serialises protocol hooks).
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
// tick boundary regardless of the dispatch path: a sequential burst and
// the clock-jump over globally idle ticks both invoke AfterTick once per
// tick, in order, with the engine's Tick and Stats consistent.
type Observer interface {
	AfterTick(t int, e *Engine)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(t int, e *Engine)

// AfterTick implements Observer.
func (f ObserverFunc) AfterTick(t int, e *Engine) { f(t, e) }

// parallelCrossover is the smallest frontier a tick fans out at (see
// Options.ParallelThreshold), measured by E15 (DESIGN.md §2.1): at 16, 1024,
// 4096 and 16384 nodes the pool's per-tick dispatch cost more than the
// sharded steps saved on some of the benchmark's 16k-node windows, while
// above 16384 none of them fans out and the Erdős–Rényi 10^5 window keeps
// its pooled gain.
const parallelCrossover = 16385

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
	// Workers is the number of goroutines that step processors within a
	// tick. 0 (the default) uses runtime.GOMAXPROCS(0); 1 selects the
	// sequential path. Any value yields bit-identical transcripts and
	// statistics. A pool larger than GOMAXPROCS never fans out unless
	// ParallelThreshold is set: time-slicing one core through channel
	// hops cannot pay.
	Workers int
	// ParallelThreshold is the smallest per-tick work (the frontier
	// size; all N nodes in Naive mode) that fans a tick out across the
	// workers. 0 keeps the measured default, parallelCrossover.
	// Equivalence tests and the E9/E10/E15 sweeps set it explicitly (1
	// forces every non-empty tick through the parallel path, at any
	// worker count).
	ParallelThreshold int
	// RetainPool keeps the parked worker pool alive when a run finishes
	// instead of releasing it, so an engine reused via Reset skips the
	// pool restart on the next run. The owner must call Close when done;
	// a panic escaping a tick still releases the pool unconditionally.
	RetainPool bool
	// Cancel, if non-nil, is polled by Run before every tick; when it
	// returns a non-nil error the run stops with that error (wrapped).
	// The engine remains resettable afterwards. Sessions wire a
	// context.Context's Err here for prompt batch cancellation.
	Cancel func() error
	// Faults, if non-nil, injects deterministic message loss and node
	// crashes (see FaultPlan). The plan is re-armed on every Reset; faults
	// preserve the determinism guarantee across workers, dispatch paths,
	// and dense/sparse scheduling.
	Faults *FaultPlan
}

// Stats summarises a run. Ticks, NonBlankMessages, StepCalls, MaxActive, and
// Dropped are protocol observables covered by the determinism guarantee:
// identical for every worker count and dispatch path. SeqTicks, ParTicks,
// and Bursts are dispatch telemetry — they describe how the run was
// dispatched (and so vary with Workers and ParallelThreshold by design) and
// are excluded from the equivalence guarantee.
type Stats struct {
	Ticks            int
	NonBlankMessages int64 // total non-blank symbols delivered
	StepCalls        int64 // automaton steps executed
	MaxActive        int   // peak simultaneously active processors
	Dropped          int64 // symbols lost to fault injection (0 without a plan)

	SeqTicks int64 // ticks dispatched on the calling goroutine (incl. idle ticks)
	ParTicks int64 // ticks fanned out across the worker pool
	Bursts   int64 // sequential bursts entered by Run
}

// Observables returns the dispatch-invariant subset of the statistics: the
// fields the determinism guarantee covers, with the scheduler telemetry
// zeroed. Equivalence tests compare these.
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
// recycling every node, wire, shard, and frontier buffer, so steady-state
// reruns allocate nothing in the engine layer.
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
	// deliveries for tick t+1; finishTick swaps them by value, so the
	// shards' Ports keep pointing at cur.
	cur wirePlane
	nxt wirePlane

	// Epoch-stamped activity planes, never cleared between ticks (a stale
	// epoch never matches): hasStamp[v] == epoch when v holds a symbol
	// delivered last tick; nextHasStamp[v] == epoch+1 when v was delivered
	// one this tick (swapped with hasStamp per tick); enqStamp[v] ==
	// epoch+1 when v is already on the next frontier. Workers write the
	// last two by compare-and-swap, and the single winner per (node, tick)
	// does the bookkeeping. When the 32-bit epoch reaches epochLimit
	// (defaultEpochLimit; tests lower it), rebaseEpochs translates every
	// plane down, preserving all relative distances.
	hasStamp     []uint32
	nextHasStamp []uint32
	enqStamp     []uint32
	epoch        uint32
	epochLimit   uint32

	// The double-buffered frontier: frontier lists the nodes to step this
	// tick in ascending order; frontierNext accumulates next tick's
	// (merged from per-shard buffers after the barrier, then sorted and
	// deduplicated against timing-wheel wakes).
	frontier     []int32
	frontierNext []int32

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
	// the tick in flight filled rootIn/rootOut. Only the worker stepping
	// the root writes them.
	rootIn, rootOut []wire.Message
	rootLive        bool

	// Resolved fault plan (see faults.go): the drop comparison bar, the
	// per-node crash tick (math.MaxInt = never), and whether any crash is
	// scheduled at all (the per-node hot-path guard).
	faults   *FaultPlan
	dropBar  uint64
	hasCrash bool
	crashAt  []int

	workers int     // resolved worker count (≥ 1)
	parMin  int     // minimum per-tick work to fan out (resolved threshold)
	seqSh   shard   // scratch shard for sequential ticks (its buffers persist)
	shards  []shard // one per worker; shards[0] runs on the caller

	// Persistent worker pool, started lazily at the first parallel tick
	// and stopped when the run finishes (unless Options.RetainPool) or
	// via Close. Each worker owns one start channel; completions funnel
	// through the shared done channel, whose receives order every worker
	// write before the merge.
	poolUp  bool
	startCh []chan struct{}
	doneCh  chan struct{}

	tick  int
	stats Stats
	done  bool
}

// shard is one worker's contiguous slice of the tick's work — frontier
// indices under sparse scheduling, node indices in Naive mode — plus its
// private tick tallies, next-frontier appends, timing-wheel traffic
// (wake records and stale-entry counts), and the Ports view its nodes step
// through; all tallies are merged in shard-index order after the barrier,
// so nothing depends on goroutine scheduling.
type shard struct {
	lo, hi    int
	stepCalls int64
	nonBlank  int64
	lives     int64 // nodes first-delivered a symbol this tick
	unwoke    int64 // pending wheel wakes invalidated by an early step
	anyActive bool
	panicked  any
	dropped   int64     // symbols lost to fault injection this tick
	next      []int32   // frontier appends for tick t+1 (sparse mode)
	wakes     []wakeRec // timing-wheel appends (sparse mode)
	// io's out plane is kept blank between steps (stepNode clears the
	// masks it routed).
	io Ports
}

// resetShard re-targets sh at the engine's planes with a blank δ-slot out
// plane, keeping the capacity of its buffers.
func (e *Engine) resetShard(sh *shard, lo, hi int) {
	*sh = shard{lo: lo, hi: hi, next: sh.next[:0], wakes: sh.wakes[:0], io: sh.io}
	sh.io.in = &e.cur
	sh.io.out.resize(e.delta)
}

// wakeRec is one deferred wake: schedule node v hold+1 ticks after the tick
// that recorded it.
type wakeRec struct {
	v    int32
	hold int8
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
// wire, shard, frontier, and transcript buffers (growing them only when g
// needs more capacity) and re-initialising automata in place when they
// implement Resettable. Every option — root, tick budget (recomputed when it
// was defaulted), worker count, callbacks — is retained. A retained worker
// pool (Options.RetainPool) survives the reset when the shard layout is
// unchanged. The reused engine is observationally identical to a fresh
// New: transcripts, statistics, and failures are bit-for-bit the same.
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
	e.resetWorkers(n)
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
	e.frontierNext = e.frontierNext[:0]
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
	e.enqStamp = zeroed(e.enqStamp, n)
	e.wakeStamp = zeroed(e.wakeStamp, n)
	e.lastStep = zeroed(e.lastStep, n)
	e.holderBits = zeroed(e.holderBits, (n+63)/64)

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

// resetWorkers re-resolves the worker count and shard layout for n nodes. A
// running pool survives only when the shard count is unchanged (the parked
// workers hold pointers into e.shards, whose backing array is kept); any
// layout change stops the pool, which restarts lazily at the next parallel
// tick.
func (e *Engine) resetWorkers(n int) {
	e.resetShard(&e.seqSh, 0, 0)
	w := e.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	e.workers = w
	if w <= 1 {
		e.stopPool()
		e.shards = nil
		return
	}
	// The dispatch rule's threshold: an explicit test seam, else never
	// for a pool that would time-slice cores, else the measured constant.
	switch {
	case e.opts.ParallelThreshold > 0:
		e.parMin = e.opts.ParallelThreshold
	case w > runtime.GOMAXPROCS(0):
		e.parMin = int(^uint(0) >> 1)
	default:
		e.parMin = parallelCrossover
	}
	if len(e.shards) != w {
		e.stopPool()
		e.shards = sized(e.shards, w)
	}
	// Static node ranges for Naive mode; sparse ticks re-plan lo/hi over
	// the frontier before every fan-out. The per-shard frontier buffers
	// keep their capacity across resets.
	per := (n + w - 1) / w
	for i := range e.shards {
		lo := i * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		e.resetShard(&e.shards[i], lo, hi)
	}
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
// tick — the frontier's epoch stamp deduplicates the insert, whether the
// node got there by delivery, by a busy re-enqueue, by a timing-wheel wake,
// or by an earlier Wake — and waking an idle node is harmless (its Step is
// a no-op by the Automaton contract). Wake must not be called while a tick
// is executing; tick boundaries inside a sequential burst are legal call
// sites (an Observer calling Wake mid-burst has the node stepped on the
// very next tick, exactly once — the burst loop re-reads the frontier every
// iteration). In Naive mode Wake is a no-op since every node steps anyway.
func (e *Engine) Wake(v int) {
	if !e.sparse || v < 0 || v >= e.g.N() {
		return
	}
	if !e.seeded {
		// The pre-run seed scan will pick the node up (and would skip
		// it here via the stamp anyway).
		return
	}
	if e.enqStamp[v] != e.epoch {
		e.enqStamp[v] = e.epoch
		e.frontier = insertSorted(e.frontier, int32(v))
	}
}

// insertSorted inserts v into ascending-sorted s, preserving order.
func insertSorted(s []int32, v int32) []int32 {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(s, i, v)
}

// seedFrontier collects the initial frontier: every processor reporting
// Busy() before the first tick (in gtd, the kicked root and any externally
// armed standalone initiators). This is the one full scan of the sparse
// path, and it runs once per run, not per tick.
func (e *Engine) seedFrontier() {
	e.seeded = true
	if !e.sparse {
		return
	}
	for v := 0; v < e.g.N(); v++ {
		if e.enqStamp[v] != e.epoch && e.procs[v].Busy() {
			e.enqStamp[v] = e.epoch
			e.frontier = append(e.frontier, int32(v))
		}
	}
	slices.Sort(e.frontier)
}

// rootTerminated reports whether the root automaton has reached its terminal
// state.
func (e *Engine) rootTerminated() bool {
	return e.rootTerm != nil && e.rootTerm.Terminated()
}

// claimStamp claims plane[v] for the value next, reporting whether this
// caller won the claim. A stale entry never equals next (epoch values
// written to a plane strictly increase), so the claim is idempotent per
// (node, tick). par selects the compare-and-swap path: several workers may
// race the claim, and the single CAS winner does the bookkeeping — the
// invariant every frontier and live-count guarantee rests on.
func claimStamp(plane []uint32, v int, next uint32, par bool) bool {
	if par {
		cur := atomic.LoadUint32(&plane[v])
		return cur != next && atomic.CompareAndSwapUint32(&plane[v], cur, next)
	}
	if plane[v] != next {
		plane[v] = next
		return true
	}
	return false
}

// markDelivery records that dst was handed a non-blank symbol this tick:
// the first writer counts dst toward the tick's live total, and under
// sparse scheduling dst joins the next frontier.
func (e *Engine) markDelivery(dst int, sh *shard, par bool) {
	if claimStamp(e.nextHasStamp, dst, e.epoch+1, par) {
		sh.lives++
	}
	if e.sparse {
		e.enqueueNext(dst, sh, par)
	}
}

// enqueueNext puts dst on the shard's next-frontier buffer unless some
// writer already enqueued it this tick (stamp dedup).
func (e *Engine) enqueueNext(dst int, sh *shard, par bool) {
	if claimStamp(e.enqStamp, dst, e.epoch+1, par) {
		sh.next = append(sh.next, int32(dst))
	}
}

// stepNode executes one processor's pulse: Step through the shard's Ports
// view, emission routing and delivery bookkeeping, root transcript capture,
// and consumed-plane clearing. All reads come from the tick-t planes (e.cur,
// e.hasStamp) and all wire writes target the tick-t+1 planes (e.nxt,
// e.nextHasStamp), so distinct nodes are independent and may run
// concurrently. The out side's set slots are copied into e.nxt by route,
// mask-gated. Under sparse scheduling the node re-enqueues itself while it
// remains busy — the half of the frontier invariant that covers
// busy-without-input processors (e.g. relays holding a speed-1 character).
func (e *Engine) stepNode(v int, hasIn bool, sh *shard, par bool) {
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
			sh.unwoke++
		}
		return
	}
	var hld Holder
	if e.sparse {
		// Timing-wheel catch-up: a pending wake becomes stale the moment
		// the node is stepped (an earlier delivery beat the timer), and
		// aging skipped while the node was parked is replayed in bulk.
		// wakeStamp/lastStep are written only by the worker that owns
		// this node's step, so no synchronisation is needed. The Holder
		// re-assertion is an itab-cache hit; only marked nodes pay it.
		if e.holderBits[v>>6]&(1<<(uint(v)&63)) != 0 {
			hld = e.procs[v].(Holder)
			if e.wakeStamp[v] != 0 {
				e.wakeStamp[v] = 0
				sh.unwoke++
			}
			if last := e.lastStep[v]; last != 0 && e.epoch-last > 1 {
				hld.AdvanceHold(int(e.epoch - last - 1))
			}
			e.lastStep[v] = e.epoch
		}
	}
	io := &sh.io
	io.base = base
	e.procs[v].Step(io)
	sh.stepCalls++
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
			sh.dropped++
			continue
		}
		dstNode := int(dst >> 8)
		e.nxt.copySlot(dstNode*delta+int(dst&0xff), out, p)
		e.markDelivery(dstNode, sh, par)
		sh.nonBlank++
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
			e.enqueueNext(v, sh, par)
		default:
			if h > MaxHold {
				h = MaxHold
			}
			e.scheduleWake(v, h, sh, par)
		}
	} else if e.procs[v].Busy() {
		e.enqueueNext(v, sh, par)
	}
}

// scheduleWake parks v on the timing wheel, due h+1 ticks after the tick in
// flight. The wake stamp is written by the owning worker; under a parallel
// tick the slot append and live-count update are deferred to the post-
// barrier merge (shard-ordered), the sequential path applies them directly.
func (e *Engine) scheduleWake(v, h int, sh *shard, par bool) {
	e.wakeStamp[v] = e.epoch + 1 + uint32(h)
	if par {
		sh.wakes = append(sh.wakes, wakeRec{v: int32(v), hold: int8(h)})
		return
	}
	e.wheelLive++
	slot := (e.tick + 1 + h) % wheelSlots
	e.wheel[slot] = append(e.wheel[slot], int32(v))
}

// stepFrontier steps the given slice of the tick's frontier. Every frontier
// node is genuinely active by construction — it was delivered a symbol last
// tick, or it reported Busy() right after its previous step — so there is
// no per-node skip test: the scheduler's work is exactly O(frontier).
func (e *Engine) stepFrontier(nodes []int32, sh *shard, par bool) {
	epoch := e.epoch
	if e.hasCrash {
		// With crashes, a frontier entry is not proof of activity: a dead
		// node enqueued by a stale wake or a swallowed delivery must not
		// hold off quiescence — the dense sweep would not count it either.
		for _, v := range nodes {
			hasIn := e.hasStamp[v] == epoch
			if hasIn || !e.crashed(int(v)) {
				sh.anyActive = true
			}
			e.stepNode(int(v), hasIn, sh, par)
		}
		return
	}
	for _, v := range nodes {
		e.stepNode(int(v), e.hasStamp[v] == epoch, sh, par)
	}
	if len(nodes) > 0 {
		sh.anyActive = true
	}
}

// stepRangeDense is the Naive-mode pulse body: step every node in [lo, hi),
// the paper's model taken literally. It is the dense reference the sparse
// scheduler is validated against; its per-node activity test feeds the
// quiescence check only.
func (e *Engine) stepRangeDense(lo, hi int, sh *shard, par bool) {
	epoch := e.epoch
	for v := lo; v < hi; v++ {
		hasIn := e.hasStamp[v] == epoch
		if hasIn || (!e.crashed(v) && e.procs[v].Busy()) {
			sh.anyActive = true
		}
		e.stepNode(v, hasIn, sh, par)
	}
}

// stepSequential runs the whole pulse on the calling goroutine, reporting
// whether any genuinely active node stepped and how many nodes were
// first-delivered a symbol for the next tick.
func (e *Engine) stepSequential() (bool, int) {
	sh := &e.seqSh
	sh.stepCalls, sh.nonBlank, sh.lives, sh.unwoke, sh.dropped, sh.anyActive = 0, 0, 0, 0, 0, false
	if e.sparse {
		// Append straight into the engine's next-frontier buffer; wheel
		// traffic is applied in place (scheduleWake), only invalidations
		// are tallied.
		sh.next = e.frontierNext
		e.stepFrontier(e.frontier, sh, false)
		e.frontierNext = sh.next
		sh.next = nil
		e.wheelLive -= int(sh.unwoke)
	} else {
		e.stepRangeDense(0, e.g.N(), sh, false)
	}
	e.stats.StepCalls += sh.stepCalls
	e.stats.NonBlankMessages += sh.nonBlank
	e.stats.Dropped += sh.dropped
	e.stats.SeqTicks++
	return sh.anyActive, int(sh.lives)
}

// runShard executes one shard's slice of the pulse, converting a panic
// (e.g. a model-validation failure) into a recorded value so the barrier
// always completes; the merge re-raises it deterministically.
func (e *Engine) runShard(sh *shard) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicked = r
		}
	}()
	if e.sparse {
		e.stepFrontier(e.frontier[sh.lo:sh.hi], sh, true)
	} else {
		e.stepRangeDense(sh.lo, sh.hi, sh, true)
	}
}

// startPool launches the persistent workers for shards 1..W-1 (shard 0
// always runs on the calling goroutine). Workers park on their start
// channel between pulses, so a tick costs two channel hops per worker
// rather than a goroutine spawn.
func (e *Engine) startPool() {
	e.doneCh = make(chan struct{})
	e.startCh = make([]chan struct{}, len(e.shards)-1)
	for i := range e.startCh {
		ch := make(chan struct{}, 1)
		e.startCh[i] = ch
		sh := &e.shards[i+1]
		go func() {
			for range ch {
				e.runShard(sh)
				e.doneCh <- struct{}{}
			}
		}()
	}
	e.poolUp = true
}

// stopPool releases the worker goroutines. Idempotent; the engine restarts
// the pool lazily if another parallel tick follows.
func (e *Engine) stopPool() {
	if !e.poolUp {
		return
	}
	for _, ch := range e.startCh {
		close(ch)
	}
	e.startCh, e.doneCh, e.poolUp = nil, nil, false
}

// releasePool is the end-of-run pool policy: stop the workers unless the
// owner asked to retain them across Reset cycles (sessions). Panic unwinds
// bypass this and always stop the pool, so an abandoned engine never leaks.
func (e *Engine) releasePool() {
	if !e.opts.RetainPool {
		e.stopPool()
	}
}

// Close releases the engine's worker goroutines. It is needed when a caller
// abandons an engine mid-run, or owns a reusable engine (Options.RetainPool)
// whose pool outlives individual runs. Close is idempotent and the engine
// remains usable afterwards: the pool restarts lazily at the next parallel
// tick.
func (e *Engine) Close() { e.stopPool() }

// stepParallel fans the pulse out across the shard workers. Under sparse
// scheduling the (index-sorted) frontier is carved into contiguous shards
// first, so the lowest-indexed active nodes always land in the lowest
// shard; Naive mode keeps the static node ranges. Shard 0 runs on the
// calling goroutine; the barrier orders every worker write before the
// merge, which folds tallies and next-frontier appends in shard-index order
// and re-raises the lowest-indexed worker panic so that failures are
// deterministic too.
func (e *Engine) stepParallel() (bool, int) {
	if !e.poolUp {
		e.startPool()
	}
	if e.sparse {
		w := len(e.shards)
		per := (len(e.frontier) + w - 1) / w
		for i := range e.shards {
			lo := min(i*per, len(e.frontier))
			e.shards[i].lo = lo
			e.shards[i].hi = min(lo+per, len(e.frontier))
		}
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.stepCalls, sh.nonBlank, sh.lives, sh.unwoke, sh.dropped, sh.anyActive, sh.panicked = 0, 0, 0, 0, 0, false, nil
		sh.next = sh.next[:0]
		sh.wakes = sh.wakes[:0]
	}
	for _, ch := range e.startCh {
		ch <- struct{}{}
	}
	e.runShard(&e.shards[0])
	for range e.startCh {
		<-e.doneCh
	}
	anyActive := false
	lives := 0
	for w := range e.shards {
		sh := &e.shards[w]
		if sh.panicked != nil {
			// The tick's panic guard releases the pool on the way out.
			panic(sh.panicked)
		}
		e.stats.StepCalls += sh.stepCalls
		e.stats.NonBlankMessages += sh.nonBlank
		e.stats.Dropped += sh.dropped
		lives += int(sh.lives)
		anyActive = anyActive || sh.anyActive
		if e.sparse {
			e.frontierNext = append(e.frontierNext, sh.next...)
			e.wheelLive -= int(sh.unwoke)
			for _, wk := range sh.wakes {
				e.wheelLive++
				slot := (e.tick + 1 + int(wk.hold)) % wheelSlots
				e.wheel[slot] = append(e.wheel[slot], wk.v)
			}
		}
	}
	e.stats.ParTicks++
	return anyActive, lives
}

// dispatchParallel reports whether the coming tick fans out across the
// worker pool: the dispatch rule. The frontier *is* the tick's work set, so
// the decision is exact; in Naive mode every node steps. Both paths produce
// identical state, so mixing them within a run preserves the determinism
// guarantee.
func (e *Engine) dispatchParallel() bool {
	if e.workers <= 1 {
		return false
	}
	work := len(e.frontier)
	if !e.sparse {
		work = e.g.N()
	}
	return work > 0 && work >= e.parMin
}

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
	for _, plane := range [][]uint32{e.hasStamp, e.nextHasStamp, e.enqStamp, e.wakeStamp, e.lastStep} {
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
// advanced to: the deliveries and hold-0 re-enqueues accumulated last tick,
// merged with the timing-wheel slot now due. Stale wheel entries (their
// node was stepped early, invalidating the stamp) are dropped; live ones
// claim the enqueue stamp so a subsequent Wake deduplicates against them,
// and the merged set is sorted and compacted so a node scheduled by both a
// delivery and a timer steps exactly once.
func (e *Engine) promoteFrontier() {
	next := e.frontierNext
	slot := &e.wheel[e.tick%wheelSlots]
	if len(*slot) > 0 {
		for _, v := range *slot {
			if e.wakeStamp[v] == e.epoch {
				e.wakeStamp[v] = 0
				e.enqStamp[v] = e.epoch
				e.wheelLive--
				next = append(next, v)
			}
		}
		*slot = (*slot)[:0]
	}
	slices.Sort(next)
	next = slices.Compact(next)
	e.frontier, e.frontierNext = next, e.frontier[:0]
}

// finishTick closes the tick in flight: root transcript delivery, activity
// accounting, plane swaps, frontier promotion, observers, and the
// quiescence check. It is shared verbatim by the per-tick path (RunOne) and
// the sequential burst, which is what keeps both dispatch paths
// bit-identical in its observables.
func (e *Engine) finishTick(anyActive bool, lives int) (bool, error) {
	if e.rootLive {
		e.rootLive = false
		e.opts.Transcript(TranscriptEntry{Tick: e.tick, In: e.rootIn, Out: e.rootOut})
	}

	// The tick's live total was counted at delivery time (stamp winners),
	// never by scanning nodes. Swap the wire and stamp planes, advance
	// the epoch, and promote the merged, sorted next frontier. Inputs
	// consumed this tick were already cleared node-locally in stepNode;
	// the stamp planes need no clearing at all (stale epochs never match).
	if lives > e.stats.MaxActive {
		e.stats.MaxActive = lives
	}
	e.cur, e.nxt = e.nxt, e.cur
	e.hasStamp, e.nextHasStamp = e.nextHasStamp, e.hasStamp
	e.epoch++
	if e.epoch >= e.epochLimit {
		e.rebaseEpochs()
	}
	e.tick++
	e.stats.Ticks = e.tick
	if e.sparse {
		e.promoteFrontier()
	}

	for _, ob := range e.opts.Observers {
		ob.AfterTick(e.tick-1, e)
	}

	// Quiescence: under sparse scheduling an empty next frontier with an
	// empty timing wheel *is* global quiescence (no symbol in flight, no
	// busy processor — busy nodes re-enqueue themselves or park a wake);
	// the dense path sweeps, as it must.
	quiet := !anyActive
	if quiet {
		if e.sparse {
			quiet = len(e.frontier) == 0 && e.wheelLive == 0
		} else {
			quiet = !e.anyPending()
		}
	}
	if quiet {
		e.done = true
		e.releasePool()
		if e.opts.StopWhenQuiescent || e.rootTerminated() {
			return false, nil
		}
		return false, ErrDeadlock
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
	if e.rootTerminated() {
		e.done = true
		e.releasePool()
		return false, nil
	}
	if e.tick >= e.opts.MaxTicks {
		e.releasePool()
		return false, fmt.Errorf("%w (tick %d)", ErrMaxTicks, e.tick)
	}
	if e.workers > 1 {
		// Any panic escaping the tick — a worker panic re-raised by the
		// merge, a sequential-tick validation failure, or a Transcript/
		// Observer callback — must release the parked pool on the way
		// out: harnesses recover engine panics and abandon the engine.
		defer func() {
			if r := recover(); r != nil {
				e.stopPool()
				panic(r)
			}
		}()
	}

	if e.hasCrash {
		e.purgeCrashWakes()
	}
	var anyActive bool
	var lives int
	if e.dispatchParallel() {
		anyActive, lives = e.stepParallel()
	} else {
		anyActive, lives = e.stepSequential()
	}
	return e.finishTick(anyActive, lives)
}

// advanceIdleTick executes a globally idle tick — empty frontier, pending
// timing-wheel wakes — in O(1): no deliveries are outstanding, so the wire
// planes are blank on both sides and the stamp planes stale on both sides;
// advancing the epoch is equivalent to the swaps a full tick would perform.
// Observers still fire, the tick still counts, and the due wheel slot is
// still promoted, so the tick is indistinguishable from a dispatched one.
func (e *Engine) advanceIdleTick() {
	e.epoch++
	if e.epoch >= e.epochLimit {
		e.rebaseEpochs()
	}
	e.tick++
	e.stats.Ticks = e.tick
	e.stats.SeqTicks++
	e.promoteFrontier()
	for _, ob := range e.opts.Observers {
		ob.AfterTick(e.tick-1, e)
	}
}

// burstCancelInterval is how many burst ticks run between Options.Cancel
// polls: bursts trade per-tick cancellation for dispatch cost, keeping
// cancellation latency bounded by a few microseconds of simulated ticks.
const burstCancelInterval = 64

// runBurst is the sequential path of Run: ticks run back-to-back on the
// calling goroutine with no shard carving, no pool dispatch, and no
// per-tick panic guard, and globally idle ticks collapse to an O(1) clock
// advance. The loop returns to Run only when the dispatch rule calls for a
// fan-out, the run ends (terminal, quiescent, budget), or the cancellation
// poll fails; Observer and Transcript callbacks still fire on every tick
// boundary, and an Observer calling Wake is honoured on the very next tick
// (the frontier is re-read every iteration). State evolution is shared with
// RunOne (stepSequential + finishTick), so a burst changes wall-clock only,
// never an observable.
func (e *Engine) runBurst() (bool, error) {
	e.stats.Bursts++
	if e.workers > 1 {
		// One pool guard per burst instead of per tick: a panic escaping
		// any tick of the burst still releases the parked pool.
		defer func() {
			if r := recover(); r != nil {
				e.stopPool()
				panic(r)
			}
		}()
	}
	cancel := e.opts.Cancel
	for n := 1; ; n++ {
		// The rule is read before every tick, including one right after
		// an idle jump, whose promoted wheel slot (and any Wake an
		// Observer called) may reach the crossover.
		if e.dispatchParallel() {
			return true, nil
		}
		if e.rootTerminated() {
			e.done = true
			e.releasePool()
			return false, nil
		}
		if e.tick >= e.opts.MaxTicks {
			e.releasePool()
			return false, fmt.Errorf("%w (tick %d)", ErrMaxTicks, e.tick)
		}
		if cancel != nil && n%burstCancelInterval == 0 {
			if err := cancel(); err != nil {
				e.releasePool()
				return false, fmt.Errorf("sim: run cancelled at tick %d: %w", e.tick, err)
			}
		}
		if e.hasCrash {
			// Void dead nodes' parked wakes before the idle check, or a
			// crash landing mid-stretch would keep the clock advancing
			// past the quiescence the dense path declares immediately.
			e.purgeCrashWakes()
		}
		if len(e.frontier) == 0 && e.wheelLive > 0 {
			e.advanceIdleTick()
			continue
		}
		anyActive, lives := e.stepSequential()
		more, err := e.finishTick(anyActive, lives)
		if err != nil || !more {
			return more, err
		}
	}
}

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
// returns the statistics. A tick the dispatch rule fans out runs through
// RunOne; every other tick runs in a sequential burst (see runBurst).
func (e *Engine) Run() (Stats, error) {
	for {
		if e.opts.Cancel != nil {
			if err := e.opts.Cancel(); err != nil {
				e.releasePool()
				return e.stats, fmt.Errorf("sim: run cancelled at tick %d: %w", e.tick, err)
			}
		}
		if e.done {
			return e.stats, nil
		}
		if !e.seeded {
			e.seedFrontier()
		}
		var more bool
		var err error
		if e.dispatchParallel() {
			more, err = e.RunOne()
		} else {
			more, err = e.runBurst()
		}
		if err != nil {
			return e.stats, err
		}
		if !more {
			return e.stats, nil
		}
	}
}
