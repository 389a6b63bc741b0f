// Package topomap is a complete implementation of the system described in
// Darin Goldstein's "Determination of the Topology of a Directed Network"
// (IPPS 2002): strongly-connected directed networks of identical,
// synchronous, finite-state processors with unidirectional constant-bandwidth
// links, and a protocol by which a distinguished root processor maps the
// entire unknown topology in O(N·D) global clock ticks using only
// constant-size messages.
//
// The package exposes:
//
//   - port-labelled directed network topologies and generators (Graph and
//     the family constructors),
//   - Map, which runs the Global Topology Determination protocol on a
//     simulated network and reconstructs the topology from the root's I/O
//     transcript alone,
//   - NewSession and MapBatch, the many-runs layer: a Session reuses the
//     engine, automata, and decoder across sequential runs (near-zero
//     steady-state allocation), and MapBatch maps many graphs concurrently
//     over a bounded session pool with results in input order and
//     context cancellation,
//   - NewService, the serving layer: a long-lived pool of warm sessions
//     behind a bounded job queue with explicit backpressure, asynchronous
//     job handles (Submit/Await/Cancel), per-job deadlines and roots,
//     streaming progress events, pool statistics, and graceful drain —
//     cmd/topomapd serves it over HTTP,
//   - the paper's auxiliary primitives as standalone operations:
//     SendBackward (the Backwards Communication Algorithm — deliver a
//     constant-size message against the direction of an edge) and
//     SignalRoot (the Root Communication Algorithm — notify the root and
//     recover the canonical shortest paths between a processor and the
//     root),
//   - LowerBound helpers reproducing the paper's Ω(N log N) argument.
//
// # Sparse scheduling and determinism
//
// The simulation engine schedules each global pulse from a sparse frontier:
// only processors that were delivered a symbol, or that stayed busy after
// their previous step, are stepped at all, so a tick costs O(active) rather
// than O(N) — the protocol keeps per-pulse activity bounded by transaction
// structure, not network size. Dormant processors (busy but provably
// inactive for a known number of ticks, e.g. relays holding speed-1
// characters) are parked on a timing wheel instead of being stepped every
// tick, and globally idle ticks collapse to an O(1) clock advance. A run
// executes its ticks back to back on the calling goroutine; concurrency
// lives one level up, in MapBatch and NewService, which run many sessions
// at once.
//
// The determinism guarantee: for a fixed graph, root, and speed
// configuration, every run produces a bit-identical root transcript,
// reconstruction, tick count, message count, and step count, and the
// engine steps a tick's processors in ascending node order, so protocol
// events arrive in the same order on every run too. The equivalence is
// enforced by tests that compare the burst loop against per-tick stepping
// and sparse against dense scheduling across graph families and seeds.
//
// The simulation substrate, snake/token data structures, protocol automaton
// and transcript decoder live in internal packages; see DESIGN.md for the
// architecture and the §4 experiment catalogue (E1–E16) reproducing every
// quantitative claim in the paper.
package topomap

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"topomap/internal/core"
	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/remap"
	"topomap/internal/service"
	"topomap/internal/sim"
	"topomap/internal/wire"
)

// Graph is a port-labelled directed multigraph: the topology of a network.
// Nodes are 0-based; ports are 1-based on each side of every node. See the
// generator functions (Ring, Torus, Kautz, Random, ...) and NewGraph.
type Graph = graph.Graph

// Edge is one wire of a Graph.
type Edge = graph.Edge

// Family names a built-in graph family for sweeps and experiments.
type Family = graph.Family

// Built-in graph families.
const (
	FamilyRing      = graph.FamilyRing
	FamilyBiRing    = graph.FamilyBiRing
	FamilyLine      = graph.FamilyLine
	FamilyTorus     = graph.FamilyTorus
	FamilyKautz     = graph.FamilyKautz
	FamilyDeBruijn  = graph.FamilyDeBruijn
	FamilyHypercube = graph.FamilyHypercube
	FamilyRandom    = graph.FamilyRandom
	FamilyTreeLoop  = graph.FamilyTreeLoop

	// Irregular families: realistic degree- and distance-skewed networks,
	// deterministic per seed and always valid under the model.
	FamilyErdosRenyi     = graph.FamilyErdosRenyi
	FamilyBarabasiAlbert = graph.FamilyBarabasiAlbert
	FamilyASTiers        = graph.FamilyASTiers
	FamilyChordalRing    = graph.FamilyChordalRing
)

// Graph construction and generators, re-exported from the graph engine.
var (
	// NewGraph returns an empty graph with n nodes and delta ports per
	// side, to be wired with Connect.
	NewGraph = graph.New
	// Ring is the directed cycle on n nodes.
	Ring = graph.Ring
	// BiRing is the bidirectional ring on n ≥ 3 nodes.
	BiRing = graph.BiRing
	// Line is the bidirectional path on n nodes.
	Line = graph.Line
	// Torus is the directed rows×cols torus.
	Torus = graph.Torus
	// Kautz is the Kautz graph K(d, k): degree d, diameter k+1.
	Kautz = graph.Kautz
	// DeBruijn is the de Bruijn-like graph on d^k nodes with self-loops
	// rewired (the model forbids them).
	DeBruijn = graph.DeBruijn
	// Hypercube is the d-dimensional hypercube with bidirectional edges.
	Hypercube = graph.Hypercube
	// TreeLoop is the Lemma 5.1 counting family: a full binary tree with
	// bidirectional edges plus a directed loop through a permutation of
	// the bottom level.
	TreeLoop = graph.TreeLoop
	// Random is a random strongly connected graph with degree bound.
	Random = graph.Random
	// ErdosRenyi is a strongly-connected bounded-degree directed G(n, p).
	ErdosRenyi = graph.ErdosRenyi
	// BarabasiAlbert is a degree-capped, SCC-repaired scale-free graph.
	BarabasiAlbert = graph.BarabasiAlbert
	// ASTiers is an AS/BGP-like three-tier provider hierarchy.
	ASTiers = graph.ASTiers
	// ChordalRing is the directed chordal k-ring C(n; 1..k).
	ChordalRing = graph.ChordalRing
	// TwoCycle is the smallest legal network: two mutually linked nodes.
	TwoCycle = graph.TwoCycle
	// Build constructs a member of a named family with ≈n nodes.
	Build = graph.Build
	// AllFamilies lists the built-in family names.
	AllFamilies = graph.AllFamilies
	// RandomPermutation draws a seeded permutation (for TreeLoop).
	RandomPermutation = graph.RandomPermutation
	// UnmarshalGraph parses the plain-text graph format.
	UnmarshalGraph = graph.Unmarshal
	// UnmarshalGraphString parses the plain-text graph format.
	UnmarshalGraphString = graph.UnmarshalString
)

// Payload is the constant-size message alphabet of the Backwards
// Communication Algorithm.
type Payload = wire.Payload

// Application payloads for SendBackward.
const (
	PayloadPing = wire.PayloadPing
	PayloadPong = wire.PayloadPong
)

// Options configures a protocol run.
type Options struct {
	// Root is the index of the root processor (default 0).
	Root int
	// MaxTicks bounds the run; 0 picks a generous automatic budget.
	MaxTicks int
	// Validate enables per-message model validation (constant-size
	// checks); it is cheap and on by default in tests, off by default
	// here.
	Validate bool
	// Speeds overrides the paper's speed assignment (ablation only);
	// nil uses the defaults.
	Speeds *Speeds
	// Faults, if non-nil, injects hostile run conditions — deterministic
	// per-wire message loss and fail-stop node crashes — into the
	// simulated network (robustness measurement; E17). The protocol is
	// not fault-tolerant: a faulted run typically fails with a deadlock
	// or tick-budget error rather than completing. Fault injection
	// preserves the determinism guarantee: the same plan yields the same
	// outcome on every run.
	Faults *FaultPlan
}

// FaultPlan configures fault injection for Options.Faults; see the fields'
// documentation in internal/sim.
type FaultPlan = sim.FaultPlan

// Crash is one fail-stop node failure of a FaultPlan.
type Crash = sim.Crash

// Speeds is the per-hop extra hold of each construct class, in ticks
// (paper defaults: snakes 2 = speed-1, loop tokens 2, UNMARK 0 = speed-3,
// KILL 0).
type Speeds struct {
	Snake  int
	Loop   int
	Unmark int
	Kill   int
}

func (o Options) config() gtd.Config {
	cfg := gtd.DefaultConfig()
	if o.Speeds != nil {
		cfg.SnakeDelay = o.Speeds.Snake
		cfg.LoopDelay = o.Speeds.Loop
		cfg.UnmarkDelay = o.Speeds.Unmark
		cfg.KillDelay = o.Speeds.Kill
	}
	return cfg
}

// coreOptions lowers the public options to the orchestration layer's; every
// entry point (Map, NewSession, MapBatch, NewService) goes through it so the
// layers cannot drift apart.
func (o Options) coreOptions(cfg *gtd.Config) core.Options {
	return core.Options{
		Root:     o.Root,
		MaxTicks: o.MaxTicks,
		Validate: o.Validate,
		Config:   cfg,
		Faults:   o.Faults,
	}
}

// Result is the outcome of Map.
type Result struct {
	// Topology is the reconstructed port-labelled network; node 0 is the
	// root. It is port-preserving isomorphic to the true topology
	// anchored at the root (Theorem 4.1).
	Topology *Graph
	// Ticks is the number of global clock ticks between initiation and
	// the root's terminal state (the paper's time-complexity measure).
	Ticks int
	// Messages is the number of non-blank symbols delivered.
	Messages int64
	// Transactions counts RCA transactions and root-local equivalents.
	Transactions int
}

// Map runs the Global Topology Determination protocol (§3 of the paper) on
// a simulated network with the given topology and returns the topology as
// reconstructed by the root's master computer from the root transcript
// alone. The input graph must validate (strongly connected, degree-bounded,
// no self-loops, every node with a wired in- and out-port).
func Map(g *Graph, opts Options) (*Result, error) {
	cfg := opts.config()
	res, err := core.Run(g, opts.coreOptions(&cfg))
	if err != nil {
		return nil, fmt.Errorf("topomap: %w", err)
	}
	return newResult(res), nil
}

// newResult lifts an orchestration-layer run result into the public shape.
func newResult(res *core.RunResult) *Result {
	return &Result{
		Topology:     res.Topology,
		Ticks:        res.Stats.Ticks,
		Messages:     res.Stats.NonBlankMessages,
		Transactions: res.Transactions,
	}
}

// Verify reports whether mapped is port-preserving isomorphic to the truth
// g anchored at root (mapped's root is node 0).
func Verify(g *Graph, root int, mapped *Graph) bool {
	return g.IsomorphicFrom(root, mapped, 0)
}

// Session is a reusable mapping context: the simulation engine, the automata,
// the wire buffers, and the transcript decoder are reset in place between
// Map calls instead of being reallocated. Ensemble studies and family sweeps that
// map thousands of graphs should prefer a Session (or MapBatch) over
// repeated Map calls: the steady state allocates almost nothing per run.
//
// The determinism guarantee extends verbatim to reuse — a reused session
// produces bit-identical transcripts, reconstructions, and statistics to a
// fresh engine, for every graph (tested).
//
// A Session maps one graph at a time and is not safe for concurrent use;
// run one session per goroutine (MapBatch does exactly that).
type Session struct {
	inner *core.Session
	// remapTopo/remapState memoize the remap state of the last
	// reconstruction this session primed or patched, keeping chained
	// Session.Remap calls on the O(k) fast path (see remap.go).
	remapTopo  *graph.Graph
	remapState *remap.State
}

// NewSession prepares a reusable mapping context with the given options
// (fixed for the session's lifetime). No resources are acquired until the
// first Map call.
func NewSession(opts Options) *Session {
	cfg := opts.config()
	return &Session{inner: core.NewSession(opts.coreOptions(&cfg))}
}

// Map runs the protocol on g, reusing the session's engine state. It is
// equivalent to topomap.Map with the session's options.
func (s *Session) Map(g *Graph) (*Result, error) {
	return s.finish(s.inner.Run(g))
}

// MapContext is Map with cancellation: the engine polls ctx between global
// clock ticks and aborts promptly (errors.Is(err, ctx.Err()) reports true).
// The session remains reusable after a cancelled run.
func (s *Session) MapContext(ctx context.Context, g *Graph) (*Result, error) {
	return s.finish(s.inner.RunContext(ctx, g))
}

func (s *Session) finish(res *core.RunResult, err error) (*Result, error) {
	if err != nil {
		return nil, fmt.Errorf("topomap: %w", err)
	}
	return newResult(res), nil
}

// Close does nothing: a session holds no goroutines or other resources
// beyond memory.
//
// Deprecated: kept so existing callers compile; there is nothing to
// release.
func (s *Session) Close() {}

// BatchOptions configures MapBatch.
type BatchOptions struct {
	// Options apply to every run of the batch.
	Options
	// Sessions is the number of concurrent mapping sessions (the bounded
	// worker pool of the batch). 0 uses runtime.GOMAXPROCS(0); the pool
	// never exceeds the number of graphs.
	Sessions int
	// StopOnError makes the first failing graph (in input order) cancel
	// the rest of the batch; MapBatch then returns that error. The
	// default records failures per item and keeps going.
	StopOnError bool
}

// BatchItem is the outcome of one graph of a batch: exactly one of Result
// and Err is non-nil (for graphs skipped after cancellation, Err is the
// context's error).
type BatchItem struct {
	Result *Result
	Err    error
}

// MapBatch maps many graphs concurrently over a bounded pool of reusable
// sessions and returns one BatchItem per input graph, in input order. Every
// graph is mapped with the same options, each by a single session at a time,
// so per-graph results are identical to sequential Map calls — the pool size
// changes wall-clock time only, never a result bit.
//
// Cancelling ctx aborts in-flight runs between clock ticks and marks every
// unfinished item with the context's error; all session pools are released
// before MapBatch returns. The returned error is non-nil only for a
// cancelled context or, with StopOnError, the first (lowest-index) item
// error; per-item failures otherwise leave it nil.
//
// MapBatch is a synchronous wrapper over the service layer (see NewService
// for the long-lived, asynchronous form): it submits every graph to a
// fresh service pool of the requested size and awaits the jobs. The
// semantics above — input-order results, per-item errors, StopOnError,
// prompt cancellation — are asserted bit-for-bit against the pre-service
// reference implementation by the equivalence suite.
func MapBatch(ctx context.Context, graphs []*Graph, opts BatchOptions) ([]BatchItem, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	items := make([]BatchItem, len(graphs))
	if len(graphs) == 0 {
		return items, ctx.Err()
	}
	sessions := opts.Sessions
	if sessions <= 0 {
		sessions = runtime.GOMAXPROCS(0)
	}
	if sessions > len(graphs) {
		sessions = len(graphs)
	}
	cfg := opts.config()
	pool := service.New(service.Options{
		Size: sessions,
		// The queue holds the whole batch, so every Submit below succeeds
		// without blocking and FIFO order reproduces the reference
		// implementation's index-order claiming.
		QueueDepth: len(graphs),
		Run:        opts.Options.coreOptions(&cfg),
	})
	defer pool.Close()

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		firstIdx = len(graphs)
	)
	recordErr := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
	}

	var wg sync.WaitGroup
	for i, g := range graphs {
		i := i
		wg.Add(1)
		// The completion hook runs synchronously on the serving goroutine
		// before it dequeues its next job, so a StopOnError cancellation
		// is visible to every later item exactly as it was when the batch
		// claimed graphs from an index loop.
		_, err := pool.Submit(ctx, g, service.JobOptions{OnDone: func(sj *service.Job) {
			defer wg.Done()
			res, err := sj.Outcome()
			if err != nil {
				if sj.Ran() {
					// The run itself failed or was aborted mid-run:
					// wrapped like every run error of the package.
					err = fmt.Errorf("topomap: %w", err)
				}
				items[i] = BatchItem{Err: err}
				// Cancellation artifacts — runs aborted because the
				// parent context died or StopOnError already fired — are
				// recorded per item but must not claim the first-error
				// slot, or an aborted lower-index run would mask the
				// causal failure.
				if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
					recordErr(i, err)
					if opts.StopOnError {
						cancel()
					}
				}
				return
			}
			items[i] = BatchItem{Result: newResult(res)}
		}})
		if err != nil {
			// Unreachable for a live pool with a batch-sized queue except
			// for a nil graph; record it like any other item failure.
			wg.Done()
			err = fmt.Errorf("topomap: %w", err)
			items[i] = BatchItem{Err: err}
			recordErr(i, err)
			if opts.StopOnError {
				cancel()
			}
		}
	}
	wg.Wait()

	if err := parent.Err(); err != nil {
		// The caller's context was cancelled or timed out.
		return items, err
	}
	if opts.StopOnError && firstErr != nil {
		return items, fmt.Errorf("topomap: batch graph %d: %w", firstIdx, firstErr)
	}
	return items, nil
}
