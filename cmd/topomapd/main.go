// Command topomapd is the streaming mapping daemon: the Global Topology
// Determination protocol served over HTTP by a pool of warm mapping
// sessions (topomap.Service).
//
// Usage:
//
//	topomapd [-addr host:port] [-pool n] [-queue n] [-block]
//	         [-deadline d] [-maxnodes n] [-every n] [-cache-bytes n]
//
// Endpoints:
//
//	POST /map      Map the graph in the request body — the plain-text
//	               graph.Marshal format emitted by topogen, or the binary
//	               codec (Content-Type: application/x-topomap, or sniffed
//	               from the tmg1 magic). Query parameters: root (default
//	               0), deadline (Go duration), stream=sse|ndjson (progress
//	               streaming; default is one JSON result), every (ticks
//	               between progress events), graph=0 (omit the
//	               reconstruction from the result), nocache=1 (bypass the
//	               result cache for this request). An Accept header naming
//	               application/x-topomap negotiates a binary result frame
//	               instead of JSON (sync path only; streaming plus binary
//	               Accept answers 406). Every response carries
//	               X-Topomap-Codec: <in>/<out>. With the cache on, sync
//	               responses also carry X-Topomap-Digest and a "digest"
//	               JSON field — the content address the result is cached
//	               under, the base for a later PATCH.
//	PATCH /map     Incremental remap of a cached reconstruction under a
//	               delta (dynamic networks, DESIGN.md §2.9). The body is a
//	               binary delta frame (tmd1 — carries its base digest) or
//	               the one-line text form ("patch +3:2>17:2 -5:1>6:1") with
//	               the base digest in ?base= or X-Topomap-Base. Query
//	               parameters: maxdirty (incremental-vs-full threshold
//	               fraction; 1 never falls back), graph=0. Responses carry
//	               X-Topomap-Remap: incremental|full and X-Topomap-Digest
//	               (the post-delta content address, the base for the next
//	               PATCH). 412 = base not cached; re-POST the full graph.
//	               Requires -cache-bytes > 0 (501 otherwise).
//	GET|POST /map  ?family=ring&n=64&seed=1 — generator shorthand: build a
//	               member of a built-in family instead of posting a body.
//	               Families: ring, biring, line, torus, kautz, debruijn,
//	               hypercube, random, treeloop, er (Erdős–Rényi), ba
//	               (Barabási–Albert), astier (AS/BGP tiers), chordal
//	               (chordal k-ring).
//	GET /stats     Pool statistics (queue depth, warm-hit rate, runs
//	               served, allocs/run, cache counters, codec counters,
//	               latency means) as JSON.
//	GET /metrics   The same statistics in the Prometheus text exposition
//	               format.
//	GET /healthz   Liveness probe.
//
// With -cache-bytes > 0 the daemon serves repeat requests from a
// content-addressed result cache: isomorphic (graph, root) pairs are
// answered from memory without an engine run, and concurrent identical
// requests collapse onto one run. Every /map response carries an
// X-Topomap-Cache header (hit, miss, or shared) when the cache is on.
// Cache hits on the sync path are served zero-copy: the entry stores the
// result pre-encoded in both codecs, so a hit writes stored bytes — no
// re-encode, no per-request graph copy.
//
// The daemon applies backpressure explicitly: when the job queue is full,
// /map answers 503 (with Retry-After) rather than queueing unboundedly —
// or, with -block, holds the request until a slot frees. On SIGINT/SIGTERM
// it drains: intake stops, accepted jobs finish, then the pool is released.
//
// For chaos testing, -droprate (with -faultseed) injects deterministic
// message loss into every run the pool serves; faulted runs that stall
// answer 422 with the engine's deadlock or budget error.
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"topomap"
	"topomap/internal/graph"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the testable body of the daemon: parse flags, start the service
// and the HTTP listener, serve until a stop signal, then drain. It returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("topomapd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8723", "listen address (use :0 for an ephemeral port)")
		pool     = fs.Int("pool", 0, "warm mapping sessions (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 0, "job-queue depth (0 = 4×pool, negative = no waiting room)")
		block    = fs.Bool("block", false, "hold /map requests when the queue is full instead of answering 503")
		deadline = fs.Duration("deadline", 2*time.Minute, "default per-job deadline, queue wait included (0 = none)")
		maxNodes = fs.Int("maxnodes", 1<<16, "reject posted graphs larger than this")
		every    = fs.Int("every", 0, "default ticks between progress events (0 = service default)")
		cacheBy  = fs.Int64("cache-bytes", 0, "content-addressed result cache capacity in bytes (0 = off)")
		drainFor = fs.Duration("drain", 30*time.Second, "shutdown budget for serving accepted jobs")
		dropRt   = fs.Float64("droprate", 0, "chaos testing: inject deterministic message loss at this rate into every run")
		faultSd  = fs.Int64("faultseed", 1, "chaos testing: seed of the message-loss hash")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dropRt < 0 || *dropRt > 1 {
		fmt.Fprintf(stderr, "topomapd: -droprate %g outside [0,1]\n", *dropRt)
		return 2
	}

	srv := newServer(serverConfig{
		Pool:       *pool,
		Queue:      *queue,
		Block:      *block,
		Deadline:   *deadline,
		MaxNodes:   *maxNodes,
		Every:      *every,
		DropRate:   *dropRt,
		FaultSd:    *faultSd,
		CacheBytes: *cacheBy,
	})
	defer srv.svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "topomapd: %v\n", err)
		return 1
	}
	// No WriteTimeout: SSE/NDJSON progress streams are long-lived by
	// design. Header and idle timeouts still bound slow-client abuse of
	// the untrusted surface.
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(stdout, "topomapd: listening on http://%s (pool=%d queue=%d)\n",
		ln.Addr(), srv.svc.Stats().Size, srv.svc.Stats().QueueCap)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintf(stderr, "topomapd: serve: %v\n", err)
		return 1
	case <-stop:
	}

	// Graceful drain: stop accepting HTTP, then serve out the accepted
	// jobs within the budget, then release the sessions.
	fmt.Fprintf(stdout, "topomapd: draining (budget %v)\n", *drainFor)
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "topomapd: http shutdown: %v\n", err)
	}
	if err := srv.svc.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "topomapd: drain: %v\n", err)
	}
	st := srv.svc.Stats()
	fmt.Fprintf(stdout, "topomapd: served %d runs (%d warm, %d failed, %d canceled)\n",
		st.Served, st.WarmServes, st.Failed, st.Canceled)
	return 0
}

// maxBodyBytes bounds a posted graph text; well above the text size of any
// graph that passes -maxnodes.
const maxBodyBytes = 64 << 20

type serverConfig struct {
	Pool       int
	Queue      int
	Block      bool
	Deadline   time.Duration
	MaxNodes   int
	Every      int
	DropRate   float64
	FaultSd    int64
	CacheBytes int64
}

// server is the daemon's HTTP surface over one topomap.Service.
type server struct {
	svc     *topomap.Service
	cfg     serverConfig
	mux     *http.ServeMux
	started time.Time
	codec   codecStats
}

// newServer builds the handler and its service pool. Callers own svc.Close.
func newServer(cfg serverConfig) *server {
	var faults *topomap.FaultPlan
	if cfg.DropRate > 0 {
		faults = &topomap.FaultPlan{Seed: cfg.FaultSd, DropRate: cfg.DropRate}
	}
	s := &server{
		svc: topomap.NewService(topomap.ServiceOptions{
			Options:         topomap.Options{Faults: faults},
			Sessions:        cfg.Pool,
			QueueDepth:      cfg.Queue,
			Block:           cfg.Block,
			DefaultDeadline: cfg.Deadline,
			ProgressEvery:   cfg.Every,
			CacheBytes:      cfg.CacheBytes,
		}),
		cfg:     cfg,
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.mux.HandleFunc("/map", s.handleMap)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.started).Milliseconds(),
	})
}

// statsResponse embeds the service counters (flat, so existing consumers
// decoding into topomap.ServiceStats keep working) and adds the daemon's
// codec counters under "codec".
type statsResponse struct {
	topomap.ServiceStats
	Codec codecSnapshot `json:"codec"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		ServiceStats: s.svc.Stats(),
		Codec:        s.codec.snapshot(),
	})
}

// progressEvent is the wire form of one streamed progress update.
type progressEvent struct {
	Tick      int   `json:"tick"`
	Frontier  int   `json:"frontier"`
	Messages  int64 `json:"messages"`
	Steps     int64 `json:"steps"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// mapResult is the wire form of a completed mapping.
type mapResult struct {
	N            int   `json:"n"`
	Delta        int   `json:"delta"`
	Edges        int   `json:"edges"`
	Root         int   `json:"root"`
	Ticks        int   `json:"ticks"`
	Messages     int64 `json:"messages"`
	Transactions int   `json:"transactions"`
	Exact        bool  `json:"exact"`
	// Remapped marks a result whose entry was produced by a PATCH-time
	// structural patch, not an engine run: the topology is authoritative but
	// ticks/messages/transactions are zero (no protocol ran).
	Remapped  bool   `json:"remapped,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Digest    string `json:"digest,omitempty"`
	Graph     string `json:"graph,omitempty"`
}

func (s *server) handleMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodGet && r.Method != http.MethodPatch {
		httpError(w, http.StatusMethodNotAllowed, "use GET, POST, or PATCH")
		return
	}
	q := r.URL.Query()

	// Every /map response payload is accounted in bytes_out, JSON, binary,
	// and streamed alike.
	cw := &countingWriter{ResponseWriter: w}
	w = cw
	defer func() { s.codec.bytesOut.Add(uint64(cw.n)) }()

	if r.Method == http.MethodPatch {
		s.handlePatch(w, r)
		return
	}

	g, inCodec, err := s.loadGraph(r)
	if err != nil {
		s.codec.decodeErrors.Add(1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.codec.countRequest(inCodec)
	if g.N() > s.cfg.MaxNodes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("graph has %d nodes, limit is %d", g.N(), s.cfg.MaxNodes))
		return
	}
	root := 0
	if v := q.Get("root"); v != "" {
		root, err = strconv.Atoi(v)
		if err != nil || root < 0 || root >= g.N() {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("root %q out of range [0,%d)", v, g.N()))
			return
		}
	}
	jobOpts := topomap.JobOptions{Root: &root}
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad deadline %q", v))
			return
		}
		jobOpts.Deadline = d
	}
	if v := q.Get("every"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad every %q", v))
			return
		}
		jobOpts.ProgressEvery = n
	}
	jobOpts.NoCache = q.Get("nocache") == "1"
	withGraph := q.Get("graph") != "0"

	outCodec := codecJSON
	if acceptsBinary(r) {
		outCodec = codecBinary
	}
	stream := q.Get("stream")
	if stream != "" && outCodec == codecBinary {
		// The progress stream is a JSON event protocol; binary negotiation
		// has no framing there. Refuse explicitly rather than downgrade.
		httpError(w, http.StatusNotAcceptable, "binary responses are sync-only; drop stream= or the Accept header")
		return
	}
	w.Header().Set("X-Topomap-Codec", inCodec+"/"+outCodec)
	s.codec.countResponse(outCodec)

	switch stream {
	case "":
		s.serveOnce(w, r, g, root, jobOpts, withGraph, outCodec == codecBinary)
	case "sse":
		s.serveStream(w, r, g, root, jobOpts, withGraph, streamSSE)
	case "ndjson":
		s.serveStream(w, r, g, root, jobOpts, withGraph, streamNDJSON)
	default:
		httpError(w, http.StatusBadRequest, "stream must be sse or ndjson")
	}
}

// loadGraph resolves the request's graph: the generator shorthand
// (?family=...&n=...&seed=...) or the posted body, decoded by whichever
// codec the request declares (Content-Type) or carries (magic sniff). The
// returned codec name feeds the X-Topomap-Codec header and the counters.
func (s *server) loadGraph(r *http.Request) (*topomap.Graph, string, error) {
	q := r.URL.Query()
	if fam := q.Get("family"); fam != "" {
		n := 24
		var err error
		if v := q.Get("n"); v != "" {
			if n, err = strconv.Atoi(v); err != nil {
				return nil, codecFamily, fmt.Errorf("bad n %q", v)
			}
		}
		if n < 2 || n > s.cfg.MaxNodes {
			return nil, codecFamily, fmt.Errorf("n=%d out of range [2,%d]", n, s.cfg.MaxNodes)
		}
		var seed int64 = 1
		if v := q.Get("seed"); v != "" {
			if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
				return nil, codecFamily, fmt.Errorf("bad seed %q", v)
			}
		}
		g, err := graph.Build(graph.Family(fam), n, seed)
		if err != nil {
			return nil, codecFamily, err
		}
		return g, codecFamily, nil
	}
	if r.Body == nil {
		return nil, codecText, errors.New("post a graph in the topomap-graph v1 or binary format, or use ?family=")
	}
	// The decode limit follows the operator's -maxnodes knob (δ ≤ 255 by
	// the format), so the allocation guard and the node-count policy are
	// one setting; overflowing products fall back to the codec default.
	maxPorts := 0
	if mn := s.cfg.MaxNodes; mn > 0 && mn < math.MaxInt/255 {
		maxPorts = mn * 255
	}
	body := &countingReader{r: io.LimitReader(r.Body, maxBodyBytes)}
	defer func() { s.codec.bytesIn.Add(uint64(body.n)) }()
	br := bufio.NewReader(body)
	peek, _ := br.Peek(4)
	if sniffBinaryBody(r.Header.Get("Content-Type"), peek) {
		g, err := graph.UnmarshalBinaryFrom(br, maxPorts)
		if err != nil {
			return nil, codecBinary, err
		}
		return g, codecBinary, nil
	}
	g, err := graph.UnmarshalLimit(br, maxPorts)
	if err != nil {
		return nil, codecText, err
	}
	return g, codecText, nil
}

// serveOnce maps the graph and answers with a single result — JSON or a
// binary tmr1 frame, per negotiation. Cache hits take the zero-copy fast
// path: Service.Lookup (no job, no queue), then the entry's pre-encoded
// bytes go straight to the socket.
func (s *server) serveOnce(w http.ResponseWriter, r *http.Request, g *topomap.Graph, root int, jobOpts topomap.JobOptions, withGraph, outBinary bool) {
	start := time.Now()
	if !jobOpts.NoCache {
		if ent, dig, ok := s.svc.LookupDigest(g, root); ent != nil && ok {
			w.Header().Set("X-Topomap-Cache", "hit")
			s.writeResult(w, ent, root, start, withGraph, outBinary, hex.EncodeToString(dig[:]))
			return
		}
	}
	j, err := s.svc.Submit(r.Context(), g, jobOpts)
	if err != nil {
		submitError(w, err)
		return
	}
	setCacheHeader(w, j)
	// With the cache on the job carries its content address — the base a
	// client's next PATCH chains from.
	var dighex string
	if dig, ok := j.Digest(); ok {
		dighex = hex.EncodeToString(dig[:])
		w.Header().Set("X-Topomap-Digest", dighex)
	}
	res, err := j.Await(r.Context())
	if err != nil {
		runError(w, err)
		return
	}
	if ent := j.Cached(); ent != nil {
		// Miss and shared paths reuse the entry the flight just populated:
		// the encode (and the O(N) verification) already happened, once.
		s.writeResult(w, ent, root, start, withGraph, outBinary, dighex)
		return
	}
	// Cache off or bypassed: encode and verify per request, as always.
	if outBinary {
		s.writeBinary(w, binaryResultOf(g, root, res, start), res.Topology, withGraph)
		return
	}
	out := s.result(g, root, res, start, withGraph)
	out.Digest = dighex
	writeJSON(w, http.StatusOK, out)
}

// writeResult serves a response from a cache entry: stored verification
// verdict, stored wire bytes, no re-encode. digest is the entry's content
// address in hex ("" when unknown), carried in the X-Topomap-Digest header
// and — on the JSON path — the "digest" field.
func (s *server) writeResult(w http.ResponseWriter, ent *topomap.CachedResult, root int, start time.Time, withGraph, outBinary bool, digest string) {
	if digest != "" {
		w.Header().Set("X-Topomap-Digest", digest)
	}
	if ent.Remapped() {
		// The entry came from a structural patch, so its protocol counters
		// are zero; the header flags it on the binary path too, where the
		// tmr1 frame has no field for it.
		w.Header().Set("X-Topomap-Remapped", "1")
	}
	res := ent.Result()
	if outBinary {
		br := binaryResult{
			N:            res.Topology.N(),
			Delta:        res.Topology.Delta(),
			Edges:        ent.Edges(),
			Root:         root,
			Ticks:        res.Ticks,
			Messages:     res.Messages,
			Transactions: int64(res.Transactions),
			ElapsedUS:    elapsedUS(start),
			Exact:        ent.Exact(),
			GraphBin:     ent.Binary(),
		}
		if br.GraphBin == nil && withGraph {
			// Beyond the binary codec's node bound (unreachable through the
			// daemon's own limits, but the entry contract allows it).
			httpError(w, http.StatusNotAcceptable, "topology exceeds the binary codec's node bound")
			return
		}
		w.Header().Set("Content-Type", contentTypeBinary)
		w.WriteHeader(http.StatusOK)
		_ = writeBinaryResult(w, br, withGraph)
		return
	}
	out := mapResult{
		N:            res.Topology.N(),
		Delta:        res.Topology.Delta(),
		Edges:        ent.Edges(),
		Root:         root,
		Ticks:        res.Ticks,
		Messages:     res.Messages,
		Transactions: res.Transactions,
		Exact:        ent.Exact(),
		Remapped:     ent.Remapped(),
		ElapsedMS:    time.Since(start).Milliseconds(),
		Digest:       digest,
	}
	if withGraph {
		out.Graph = ent.Text()
	}
	writeJSON(w, http.StatusOK, out)
}

// binaryResultOf assembles a tmr1 frame's scalars for the uncached path.
func binaryResultOf(g *topomap.Graph, root int, res *topomap.Result, start time.Time) binaryResult {
	return binaryResult{
		N:            res.Topology.N(),
		Delta:        res.Topology.Delta(),
		Edges:        res.Topology.NumEdges(),
		Root:         root,
		Ticks:        res.Ticks,
		Messages:     res.Messages,
		Transactions: int64(res.Transactions),
		ElapsedUS:    elapsedUS(start),
		Exact:        topomap.Verify(g, root, res.Topology),
	}
}

// writeBinary encodes the topology (uncached path) and emits the frame.
func (s *server) writeBinary(w http.ResponseWriter, br binaryResult, topo *topomap.Graph, withGraph bool) {
	if withGraph {
		bin, err := topo.MarshalBinary()
		if err != nil {
			httpError(w, http.StatusNotAcceptable, err.Error())
			return
		}
		br.GraphBin = bin
	}
	w.Header().Set("Content-Type", contentTypeBinary)
	w.WriteHeader(http.StatusOK)
	_ = writeBinaryResult(w, br, withGraph)
}

// setCacheHeader stamps the response with how the job met the result cache;
// no header when the cache is off or bypassed.
func setCacheHeader(w http.ResponseWriter, j *topomap.Job) {
	if state := j.CacheState().String(); state != "" {
		w.Header().Set("X-Topomap-Cache", state)
	}
}

// streamMode selects the progress-stream encoding.
type streamMode int

const (
	streamSSE streamMode = iota
	streamNDJSON
)

// serveStream maps the graph while streaming progress events, then the
// result (or error), over SSE or NDJSON chunks.
func (s *server) serveStream(w http.ResponseWriter, r *http.Request, g *topomap.Graph, root int, jobOpts topomap.JobOptions, withGraph bool, mode streamMode) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	// The progress sink runs on the serving goroutine and must not block:
	// events overflow into the void, the stream just thins.
	events := make(chan topomap.Progress, 64)
	jobOpts.Progress = func(p topomap.Progress) {
		select {
		case events <- p:
		default:
		}
	}
	start := time.Now()
	j, err := s.svc.Submit(r.Context(), g, jobOpts)
	if err != nil {
		submitError(w, err)
		return
	}
	setCacheHeader(w, j)
	if mode == streamSSE {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	emit := func(event string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		if mode == streamSSE {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		} else {
			fmt.Fprintf(w, "{%q: %s}\n", event, data)
		}
		flusher.Flush()
	}

	for {
		select {
		case p := <-events:
			emit("progress", progressEvent{
				Tick:      p.Tick,
				Frontier:  p.Frontier,
				Messages:  p.Messages,
				Steps:     p.Steps,
				ElapsedMS: p.Elapsed.Milliseconds(),
			})
		case <-j.Done():
			res, err := j.Await(r.Context())
			if err != nil {
				emit("error", map[string]string{"error": err.Error()})
				return
			}
			if ent := j.Cached(); ent != nil {
				// The flight's entry carries the verification verdict and
				// the encoded text — skip the per-request O(N) verify.
				out := mapResult{
					N:            res.Topology.N(),
					Delta:        res.Topology.Delta(),
					Edges:        ent.Edges(),
					Root:         root,
					Ticks:        res.Ticks,
					Messages:     res.Messages,
					Transactions: res.Transactions,
					Exact:        ent.Exact(),
					ElapsedMS:    time.Since(start).Milliseconds(),
				}
				if withGraph {
					out.Graph = ent.Text()
				}
				emit("result", out)
				return
			}
			emit("result", s.result(g, root, res, start, withGraph))
			return
		}
	}
}

// result assembles the wire result, verifying the reconstruction against
// the input truth (the daemon knows it — clients posting a graph can also
// re-verify from the returned text).
func (s *server) result(g *topomap.Graph, root int, res *topomap.Result, start time.Time, withGraph bool) mapResult {
	out := mapResult{
		N:            res.Topology.N(),
		Delta:        res.Topology.Delta(),
		Edges:        res.Topology.NumEdges(),
		Root:         root,
		Ticks:        res.Ticks,
		Messages:     res.Messages,
		Transactions: res.Transactions,
		Exact:        topomap.Verify(g, root, res.Topology),
		ElapsedMS:    time.Since(start).Milliseconds(),
	}
	if withGraph {
		out.Graph = res.Topology.MarshalString()
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// submitError maps Submit failures to status codes: backpressure and
// shutdown are 503 (retryable), anything else is the client's request.
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, topomap.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "job queue full, retry")
	case errors.Is(err, topomap.ErrServiceClosed):
		httpError(w, http.StatusServiceUnavailable, "daemon is draining")
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

// runError maps run failures: deadlines are 504, everything else (validation
// failures, budget exhaustion) is 422 — the graph was parseable but not
// mappable as requested.
func runError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, err.Error())
	default:
		httpError(w, http.StatusUnprocessableEntity, err.Error())
	}
}
