// Package core orchestrates the paper's primary contribution: it wires the
// protocol automaton (internal/gtd) into the synchronous engine
// (internal/sim), attaches the master computer (internal/mapper) to the
// root's transcript, and runs the Global Topology Determination protocol to
// completion. The public topomap package delegates here.
package core

import (
	"context"
	"fmt"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// Run executes the Global Topology Determination protocol.
type RunResult struct {
	// Topology is the reconstruction (node 0 = root), exact per
	// Theorem 4.1.
	Topology *graph.Graph
	// Stats are the engine's counters; Stats.Ticks is the paper's
	// time-complexity measure.
	Stats sim.Stats
	// Transactions counts completed RCAs plus root-local equivalents.
	Transactions int
}

// Options configures a run.
type Options struct {
	Root     int
	MaxTicks int
	Validate bool
	// Workers is ignored: the engine steps every tick on the calling
	// goroutine.
	//
	// Deprecated: kept so existing callers compile; it has no effect.
	Workers int
	// Config overrides the paper's speed assignment; nil uses defaults.
	Config *gtd.Config
	// Faults, if non-nil, injects deterministic message loss and node
	// crashes into the engine (sim.Options.Faults); the plan is fixed for
	// the session's lifetime and re-armed on every run.
	Faults *sim.FaultPlan
	// Observers are attached to the engine (instrumentation).
	Observers []sim.Observer
	// Hooks receive protocol events (instrumentation).
	Hooks gtd.Hooks
}

// Session is a reusable protocol-run context: one engine, one automata set,
// and one mapper that are reset in place between runs instead of being
// reallocated. A session maps one graph at a time (it is not safe for
// concurrent use — run one session per goroutine); across sequential runs
// the steady state allocates almost nothing. A reused session is
// observationally identical to a fresh engine: transcripts, reconstructions,
// statistics, and failures are bit-for-bit the same (tested across families
// and seeds).
//
// The options — including the protocol configuration and hooks — are fixed
// at creation; only the graph (and, via RunRooted, the root) varies per run.
type Session struct {
	opts    Options
	arena   *gtd.Arena
	factory func(sim.NodeInfo) sim.Automaton
	m       *mapper.Mapper
	eng     *sim.Engine
	// ctx is the cancellation context of the run in flight; the engine's
	// Cancel callback reads it. Nil means not cancellable.
	ctx context.Context
	// runs counts the runs this session has executed (including failed
	// ones). The service pool reads it to tell warm serves — runs on an
	// already-exercised engine — from cold ones.
	runs int
	// progress/progressEvery are the per-run progress sink installed with
	// SetProgress; the session's engine observer forwards engine snapshots
	// here. Mutated only between runs, read on every tick.
	progress      func(sim.Progress)
	progressEvery int
}

// NewSession prepares a reusable run context with the given options. No
// resources are acquired until the first run.
func NewSession(opts Options) *Session {
	cfg := gtd.DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	if opts.Hooks != nil {
		prev := cfg.Hooks
		hooks := opts.Hooks
		cfg.Hooks = func(node int, kind gtd.EventKind, payload int) {
			if prev != nil {
				prev(node, kind, payload)
			}
			hooks(node, kind, payload)
		}
	}
	a := gtd.NewArena(cfg)
	return &Session{opts: opts, arena: a, factory: a.Factory()}
}

// MemInfo is the session's resident-memory accounting: the engine's buffer
// planes plus the automata arena. Memory is host telemetry, deliberately
// separate from the protocol statistics in RunResult (which are covered by
// the determinism guarantee and must not vary with allocator behaviour).
type MemInfo struct {
	// Engine is the simulation engine's buffer accounting; zero before
	// the first run (no engine exists yet).
	Engine sim.MemInfo
	// ArenaBytes is the memory pinned by the automata arena's blocks;
	// Automata is the number of processor slots handed out.
	ArenaBytes int64
	Automata   int
	// TotalBytes is engine + arena; BytesPerNode divides it by the last
	// run's node count (0 before the first run).
	TotalBytes   int64
	BytesPerNode float64
}

// Mem reports the session's resident buffer footprint. Cheap (slice-header
// walks only); call it between runs — not concurrently with one.
func (s *Session) Mem() MemInfo {
	m := MemInfo{
		ArenaBytes: s.arena.FootprintBytes(),
		Automata:   s.arena.Allocated(),
	}
	if s.eng != nil {
		m.Engine = s.eng.Mem()
	}
	m.TotalBytes = m.Engine.TotalBytes + m.ArenaBytes
	if s.eng != nil {
		if n := s.eng.Graph().N(); n > 0 {
			m.BytesPerNode = float64(m.TotalBytes) / float64(n)
		}
	}
	return m
}

// Run maps g from the session's configured root.
func (s *Session) Run(g *graph.Graph) (*RunResult, error) {
	return s.run(nil, g, s.opts.Root)
}

// RunContext is Run with cancellation: the engine polls ctx between ticks
// and aborts the run with ctx's error once it is done. The session remains
// reusable after a cancelled run.
func (s *Session) RunContext(ctx context.Context, g *graph.Graph) (*RunResult, error) {
	return s.run(ctx, g, s.opts.Root)
}

// RunRooted is Run with a per-run root override, for harnesses sweeping
// roots across a graph family.
func (s *Session) RunRooted(g *graph.Graph, root int) (*RunResult, error) {
	return s.run(nil, g, root)
}

// RunRootedContext combines the per-run root override with cancellation; the
// service layer uses it to honour per-job roots on pooled sessions.
func (s *Session) RunRootedContext(ctx context.Context, g *graph.Graph, root int) (*RunResult, error) {
	return s.run(ctx, g, root)
}

// Runs reports how many runs the session has executed so far (successful or
// not). A session with Runs() > 0 is warm: its engine, automata, and mapper
// are already allocated and a further run recycles them.
func (s *Session) Runs() int { return s.runs }

// SetProgress installs (or, with a nil fn, removes) a per-run progress sink:
// during subsequent runs the session invokes fn with an engine snapshot
// every `every` ticks, on the goroutine driving the run. every <= 1 reports
// every tick. The sink persists across runs until changed; callers must not
// call SetProgress while a run is in flight.
func (s *Session) SetProgress(every int, fn func(sim.Progress)) {
	s.progress, s.progressEvery = fn, every
}

// progressTap is the observer a session always installs on its engine: it
// forwards tick snapshots to the per-run sink, and costs one branch per tick
// when no sink is set.
type progressTap struct{ s *Session }

// AfterTick implements sim.Observer.
func (p progressTap) AfterTick(t int, e *sim.Engine) {
	s := p.s
	if s.progress == nil {
		return
	}
	if s.progressEvery > 1 && (t+1)%s.progressEvery != 0 {
		return
	}
	s.progress(e.Progress())
}

func (s *Session) run(ctx context.Context, g *graph.Graph, root int) (*RunResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", root, g.N())
	}
	if g.Delta() > wire.MaxDelta {
		return nil, fmt.Errorf("core: graph degree %d exceeds the wire-format limit %d", g.Delta(), wire.MaxDelta)
	}
	if g.N() >= sim.MaxNodes {
		return nil, fmt.Errorf("core: graph has %d nodes, engine limit is %d", g.N(), sim.MaxNodes-1)
	}
	s.ctx = ctx
	defer func() { s.ctx = nil }()
	if s.m == nil {
		s.m = mapper.New(g.Delta())
	} else {
		s.m.Reset(g.Delta())
	}
	if s.eng == nil {
		// The progress tap is appended to a fresh slice so the caller's
		// Observers backing array is never written to.
		obs := make([]sim.Observer, 0, len(s.opts.Observers)+1)
		obs = append(obs, s.opts.Observers...)
		obs = append(obs, progressTap{s})
		s.eng = sim.New(g, sim.Options{
			Root:       root,
			MaxTicks:   s.opts.MaxTicks,
			Validate:   s.opts.Validate,
			Faults:     s.opts.Faults,
			Transcript: s.m.Process,
			Observers:  obs,
			Cancel: func() error {
				if s.ctx != nil {
					return s.ctx.Err()
				}
				return nil
			},
		}, s.factory)
	} else {
		s.eng.ResetRooted(g, root)
	}
	s.runs++
	stats, err := s.eng.Run()
	if err != nil {
		return nil, fmt.Errorf("core: protocol run failed: %w", err)
	}
	topo, err := s.m.Finish()
	if err != nil {
		return nil, fmt.Errorf("core: transcript decoding failed: %w", err)
	}
	return &RunResult{Topology: topo, Stats: stats, Transactions: s.m.Transactions}, nil
}

// Close does nothing: a session holds no goroutines or other resources
// beyond memory.
//
// Deprecated: kept so existing callers compile; there is nothing to
// release.
func (s *Session) Close() {}

// Run maps g from the given root and returns the reconstruction with run
// statistics. The input must be a valid network of the model. It is a
// one-shot wrapper over Session.
func Run(g *graph.Graph, opts Options) (*RunResult, error) {
	return NewSession(opts).Run(g)
}

// Exact reports whether a reconstruction matches the truth anchored at the
// root.
func Exact(truth *graph.Graph, root int, mapped *graph.Graph) bool {
	return truth.IsomorphicFrom(root, mapped, 0)
}
