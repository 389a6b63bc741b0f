package gtd

import (
	"topomap/internal/sim"
	"topomap/internal/snake"
	"topomap/internal/wire"
)

// Processor is the paper's communication processor: one identical
// finite-state automaton per network node, running the Global Topology
// Determination protocol. The root (flagged by the initiating "outside
// source") additionally runs the root side of the RCA and drives the
// depth-first search; every other behaviour is common.
//
// All fields are constant-bounded given the degree bound δ: port numbers,
// phase enumerations, bit masks over ports, and bounded character pipelines.
// The Index inside info is used exclusively for instrumentation hooks.
// Fields are ordered by alignment class (pointers, then 4-byte, then 2-byte
// and smaller) so the struct packs without internal padding: processors are
// arena-allocated by the million, so every padding byte here is a byte per
// network node.
type Processor struct {
	cfg *Config
	// root is the root-only RCA state, held out of line: exactly one node
	// per run is the root, so inlining it would cost every node the
	// struct. It is allocated lazily on the first run as root and kept
	// (zeroed) across Resets; all accesses sit behind root-role guards.
	root *rootState

	info nodeInfo
	dfs  dfsState

	// Standalone-delivery and transaction counters (instrumentation).
	deliveredCount int32
	rcaCount       int32

	// Pass-through snake machinery (one per kind).
	grow [wire.NumGrowKinds]snake.GrowRelay
	die  [wire.NumDieKinds]snake.DieRelay

	rca  rcaInitState
	bcaI bcaInitState

	marks loopMarks
	bcaT  bcaTargetState

	// live is the component-occupancy bitmask (see the live* constants):
	// bit b is set while the corresponding component may still act
	// without input. Gain sites (receives, arms, starts) set bits as they
	// happen — conservatively: a set bit only promises the component is
	// *worth polling* — and refreshLive, at the end of every Step,
	// rescans exactly the set bits and clears the ones whose component
	// drained. The hot paths (beginTick, emit, Busy, Hold, AdvanceHold)
	// then iterate set bits instead of polling every idle component.
	live uint16

	// killPending is the residual hold of a KILL token being forwarded;
	// -1 means none.
	killPending int8

	// rootKick makes the root take its first action (initial DFS send).
	rootKick bool

	// pendingKick arms a standalone RCA/BCA transaction (standalone.go).
	pendingKick kick
	kickTok     wire.LoopToken
	kickPort    uint8
	kickPayload wire.Payload

	lastDelivered wire.Payload // last standalone BCA payload (instrumentation)
	terminated    bool

	// scratch holds the emissions created by this tick's transitions; it
	// is reset at the start of every Step.
	scratch scratch
}

// Component bits of Processor.live, in emission order (emit iterates set
// bits ascending, reproducing the fixed component order of the paper's
// channel composition).
const (
	liveGrow0 uint16 = 1 << iota // grow[0] (IG relay)
	liveGrow1                    // grow[1] (OG relay)
	liveGrow2                    // grow[2] (BG relay)
	liveRootConv
	liveRCAIni
	liveBCAIni
	liveDie0 // die[0] (ID relay)
	liveDie1 // die[1] (OD relay)
	liveDie2 // die[2] (BD relay)
	liveRCAConv
	liveODConv
	liveBCAConv
	liveMarks
	liveKill
)

// The direct bit↔component cases in liveBitBusy/beginTick/emit/Hold assume
// exactly three growing and three dying kinds; these fail to compile if the
// alphabet ever changes.
var (
	_ [wire.NumGrowKinds - 3]struct{}
	_ [3 - wire.NumGrowKinds]struct{}
	_ [wire.NumDieKinds - 3]struct{}
	_ [3 - wire.NumDieKinds]struct{}
)

// nodeInfo is the processor's packed copy of its sim.NodeInfo: the wired-port
// slices become per-direction bitmasks (ports are bounded by wire.MaxDelta,
// so 32 bits suffice), shrinking the per-node footprint from the 72-byte
// slice-headed struct to 16 bytes with no references for the GC to chase.
type nodeInfo struct {
	idx   int32
	inW   uint32 // bit p-1 set ⇔ in-port p is wired
	outW  uint32 // bit p-1 set ⇔ out-port p is wired
	delta uint8
	root  bool
}

func (i nodeInfo) inWired(port int) bool  { return i.inW&(1<<(port-1)) != 0 }
func (i nodeInfo) outWired(port int) bool { return i.outW&(1<<(port-1)) != 0 }

// node returns the processor's node index (instrumentation hooks only).
func (p *Processor) node() int { return int(p.info.idx) }

// delta returns the network's degree bound.
func (p *Processor) delta() int { return int(p.info.delta) }

func packInfo(info sim.NodeInfo) nodeInfo {
	if info.Delta > wire.MaxDelta {
		panic("gtd: degree bound exceeds wire.MaxDelta")
	}
	return nodeInfo{
		idx:   int32(info.Index),
		inW:   info.InW,
		outW:  info.OutW,
		delta: uint8(info.Delta),
		root:  info.Root,
	}
}

type scratch struct {
	killNow  bool
	loopSet  bool
	loopTok  wire.LoopToken
	loopPort uint8
	dfsSet   bool
	dfsPort  uint8
}

// dfsState is the per-processor depth-first-search layer (§3).
type dfsState struct {
	visited  bool
	parentIn uint8
	finished uint32 // bitmask of finished out-ports (bit p-1)
	// pendingOut is the out-port through which the DFS token was last
	// sent and whose return (via BCA) is awaited; 0 = none.
	pendingOut uint8
	// afterRCA is the action to take when the running RCA completes.
	afterRCA afterAction
	// backIn is the in-port through which the DFS token most recently
	// arrived forward while the processor was already visited; the BCA
	// sending it back targets this port.
	backIn uint8
}

type afterAction uint8

const (
	afterNone afterAction = iota
	// afterAdvance continues the DFS at this processor: send the token
	// through the next unfinished out-port, or hand it back to the
	// parent (or terminate, at the root).
	afterAdvance
	// afterBCABack returns the DFS token backwards through backIn.
	afterBCABack
	// afterIdle takes no action (standalone RCA).
	afterIdle
)

// kick identifies a pending standalone transaction start.
type kick uint8

const (
	kickNone kick = iota
	kickRCA
	kickBCA
)

// rcaInitState is the state machine of an RCA's processor A (§4.2.1). The
// OG→ID converter is embedded by value and re-armed per transaction so the
// hot path never heap-allocates.
type rcaInitState struct {
	phase   rcaPhase
	ini     snake.Initiator
	tok     wire.LoopToken // FORWARD(i,j) or BACK, released in step 4
	conv    snake.DieConverter
	srcPort uint8
}

type rcaPhase uint8

const (
	rcaIdle rcaPhase = iota
	// rcaWaitOG: IG snakes flooding; awaiting the first OG head.
	rcaWaitOG
	// rcaConverting: OG→ID conversion running; awaiting the OD tail.
	rcaConverting
	// rcaWaitLoopReturn: KILL and FORWARD/BACK released; awaiting the
	// loop token's return.
	rcaWaitLoopReturn
	// rcaWaitUnmark: UNMARK released; awaiting its return.
	rcaWaitUnmark
)

// rootState is the root's side of the RCA (steps 2–3).
type rootState struct {
	// conv converts the accepted IG stream into the OG broadcast. Its
	// Visited flag doubles as the paper's "root closes itself off to all
	// other IG-snakes": it is reset only by the UNMARK token, never by
	// KILL.
	conv snake.GrowRelay
	// sealed is set when a KILL token passes the closed root: the
	// IG→OG conversion is complete by then (the KILL is released only
	// after processor A has consumed the entire OG snake), so any IG
	// character arriving later is a straggler of the dying flood. If the
	// root kept converting stragglers it would emit fresh OG streams
	// behind the KILL wave, re-contaminating the network — the one place
	// where erase-on-KILL does not apply and the cleanup chase would
	// otherwise break.
	sealed   bool
	idActive bool
	idSrc    uint8
	odConv   snake.DieConverter
}

// bcaInitState is the state machine of a BCA's initiator B (§4.1; design
// choice 1 of DESIGN.md).
type bcaInitState struct {
	phase      bcaIPhase
	ini        snake.Initiator
	targetPort uint8
	payload    wire.Payload
	conv       snake.DieConverter
}

type bcaIPhase uint8

const (
	biIdle bcaIPhase = iota
	// biWaitReturn: BG snakes flooding; awaiting the first BG head to
	// re-enter through targetPort.
	biWaitReturn
	// biConverting: BG→BD conversion running.
	biConverting
	// biMarked: the BD tail returned; the loop is fully marked and B is a
	// passive loop member until UNMARK passes.
	biMarked
)

// bcaTargetState is the state machine of a BCA's target processor.
type bcaTargetState struct {
	phase   btPhase
	payload wire.Payload
	// armed is set between consuming the flagged head and forwarding the
	// BD tail.
	armed bool
}

type btPhase uint8

const (
	btIdle btPhase = iota
	// btWaitAck: KILL and ACK released; awaiting the ACK's return.
	btWaitAck
	// btWaitUnmark: UNMARK released; awaiting its return.
	btWaitUnmark
)

// New constructs the processor automaton for one node.
func New(cfg *Config, info sim.NodeInfo) *Processor {
	p := &Processor{cfg: cfg}
	p.Reset(info)
	return p
}

// Reset re-initialises the processor in place for a new run, implementing
// sim.Resettable: every field returns to its New state (the configuration is
// retained) without heap allocation, so a reused engine's automata layer
// allocates nothing. The node's role — including whether it is the root —
// may change between runs.
func (p *Processor) Reset(info sim.NodeInfo) {
	cfg, root := p.cfg, p.root
	*p = Processor{cfg: cfg, info: packInfo(info), killPending: -1}
	for i := 0; i < wire.NumGrowKinds; i++ {
		p.grow[i] = snake.NewGrowRelay(cfg.SnakeDelay)
	}
	for i := 0; i < wire.NumDieKinds; i++ {
		p.die[i] = snake.NewDieRelay(cfg.SnakeDelay)
	}
	if root != nil {
		// Reuse the allocation across runs (the role may flip between
		// runs; a stale zeroed rootState is inert on a non-root).
		*root = rootState{}
		p.root = root
	}
	if p.info.root {
		if p.root == nil {
			p.root = &rootState{}
		}
		p.root.conv = snake.NewGrowRelay(cfg.SnakeDelay)
		p.dfs.visited = true
		p.rootKick = !cfg.PassiveRoot
	}
}

// NewFactory adapts New to the engine's factory signature, backing all
// processors it builds with one Arena: a handful of flat blocks instead of N
// individual heap objects, and a single shared Config. If cfg carries hooks,
// every processor built by this factory shares one mutex around the
// callback: the engine may step processors of one pulse concurrently, and
// serialising here keeps every hook consumer (experiment meters, traces,
// tests) race-free without each one locking — see the Hooks doc for the
// intra-tick ordering caveat this leaves.
func NewFactory(cfg Config) func(sim.NodeInfo) sim.Automaton {
	return NewArena(cfg).Factory()
}

// Terminated reports whether the root has entered its terminal state.
func (p *Processor) Terminated() bool { return p.terminated }

// Busy reports whether the processor may act without input this tick. It
// implements the tightened sim.Automaton contract the engine's sparse
// frontier scheduler depends on:
//
//   - it is a pure function of the processor's state (no clocks, no
//     randomness, no engine queries), so the engine may evaluate it at any
//     point between ticks and always get the same answer;
//   - that state changes only inside Step or through the documented
//     pre-run arming calls (Reset, StartRCA, StartBCA — mid-run arming
//     additionally requires sim.Engine.Wake, see its doc);
//   - when it reports false, a Step fed only blanks is a state-preserving
//     no-op that emits only blanks (asserted by TestQuiescentStepIsNoop
//     and, end to end, by the dense-vs-sparse equivalence suite).
//
// The live bitmask enumerates every source of spontaneous activity:
// running snake initiators, non-empty relay pipelines, armed but
// unfinished converters, decaying loop marks, and a KILL token still held
// for its residual delay; pending kicks are checked directly. A construct
// missing from the mask maintenance would stall under sparse scheduling
// the moment it tried to act from a tick with no incoming symbol — the
// dense-vs-sparse equivalence suite exists to detect exactly this class
// of bug, and TestHoldMatchesBusy pins the mask against a full component
// rescan across protocol runs.
func (p *Processor) Busy() bool {
	if p.rootKick || p.pendingKick != kickNone {
		return true
	}
	if p.terminated {
		return false
	}
	return p.live != 0
}

// liveBitBusy re-derives one component's occupancy from its ground truth;
// refreshLive uses it to clear drained bits. For converters the criterion
// is armed-and-unfinished (matching their contribution to Busy): a starved
// conversion stays live so the scheduler keeps re-examining it.
func (p *Processor) liveBitBusy(bit uint16) bool {
	switch bit {
	case liveGrow0:
		return p.grow[0].Busy()
	case liveGrow1:
		return p.grow[1].Busy()
	case liveGrow2:
		return p.grow[2].Busy()
	case liveRootConv:
		return p.root != nil && p.root.conv.Busy()
	case liveRCAIni:
		return p.rca.ini.Busy()
	case liveBCAIni:
		return p.bcaI.ini.Busy()
	case liveDie0:
		return p.die[0].Busy()
	case liveDie1:
		return p.die[1].Busy()
	case liveDie2:
		return p.die[2].Busy()
	case liveRCAConv:
		return p.rca.conv.Armed() && !p.rca.conv.Done()
	case liveODConv:
		return p.root != nil && p.root.odConv.Armed() && !p.root.odConv.Done()
	case liveBCAConv:
		return p.bcaI.conv.Armed() && !p.bcaI.conv.Done()
	case liveMarks:
		return p.marks.tokActive
	case liveKill:
		return p.killPending >= 0
	}
	panic("gtd: unknown live bit")
}

// refreshLive rescans exactly the set bits of the live mask and clears the
// components that drained during this step. Components can gain occupancy
// only at sites that set their bit, so untouched clear bits stay correct.
func (p *Processor) refreshLive() {
	m := p.live
	for m != 0 {
		bit := m & (-m)
		m &^= bit
		if !p.liveBitBusy(bit) {
			p.live &^= bit
		}
	}
}

// Step implements sim.Automaton: it dispatches on each in-port's mask word
// and moves characters between the packed wire words and snake.Char (a
// growing character a relay only forwards stays a word throughout).
func (p *Processor) Step(io *sim.Ports) {
	p.scratch = scratch{}
	p.beginTick()

	// A KILL token is applied before this tick's characters are read:
	// residue it erases is by definition from an older flood, while a
	// fresh snake character sharing a wire with a relayed KILL (both
	// emitted by the same upstream processor in one tick) belongs to the
	// *new* transaction and must survive.
	var all uint16
	for port := 1; port <= p.delta(); port++ {
		all |= io.InMask(port)
	}
	if all&wire.KillBit != 0 {
		p.handleKill()
	}

	if all&^wire.KillBit != 0 {
		p.receive(io)
	}

	if p.rootKick {
		p.rootKick = false
		p.dfsAdvance()
	}
	switch p.pendingKick {
	case kickRCA:
		p.pendingKick = kickNone
		p.startRCA(p.kickTok)
	case kickBCA:
		p.pendingKick = kickNone
		p.startBCA(p.kickPort, p.kickPayload)
	}

	p.emit(io)
	p.refreshLive()
}

// receive is Step's input phase: ports in ascending order so the paper's
// simultaneity tie-break (lowest in-port first) holds.
func (p *Processor) receive(io *sim.Ports) {
	for port := 1; port <= p.delta(); port++ {
		m := io.InMask(port) &^ wire.KillBit
		if m == 0 {
			continue
		}
		for i := 0; m&wire.GrowBits != 0; i++ {
			if m&(wire.GrowBit0<<i) != 0 {
				m &^= wire.GrowBit0 << i
				p.receiveGrow(i, snake.Arrive(io.InGrow(port, i), uint8(port)), uint8(port))
			}
		}
		for i := 0; m&wire.DieBits != 0; i++ {
			if m&(wire.DieBit0<<i) != 0 {
				m &^= wire.DieBit0 << i
				p.receiveDie(i, snake.CharOf(io.InDie(port, i)), uint8(port))
			}
		}
		if m&wire.LoopBit != 0 {
			p.receiveLoop(wire.UnpackLoopToken(io.InLoop(port)), uint8(port))
		}
		if m&wire.DFSBit != 0 {
			p.receiveDFS(io.InDFS(port), uint8(port))
		}
	}
}

// beginTick ages every live pipeline exactly once; idle components (clear
// bits) need no aging at all, so the common step ages one or two
// components instead of polling a dozen.
func (p *Processor) beginTick() {
	m := p.live
	for m != 0 {
		bit := m & (-m)
		m &^= bit
		switch bit {
		case liveGrow0:
			p.grow[0].BeginTick()
		case liveGrow1:
			p.grow[1].BeginTick()
		case liveGrow2:
			p.grow[2].BeginTick()
		case liveRootConv:
			p.root.conv.BeginTick()
		case liveRCAIni, liveBCAIni:
			// Initiators hold no pipeline.
		case liveDie0:
			p.die[0].BeginTick()
		case liveDie1:
			p.die[1].BeginTick()
		case liveDie2:
			p.die[2].BeginTick()
		case liveRCAConv:
			p.rca.conv.BeginTick()
		case liveODConv:
			p.root.odConv.BeginTick()
		case liveBCAConv:
			p.bcaI.conv.BeginTick()
		case liveMarks:
			p.marks.age()
		case liveKill:
			if p.killPending > 0 {
				p.killPending--
			}
		}
	}
}
