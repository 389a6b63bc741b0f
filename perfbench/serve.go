package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"topomap/internal/graph"
)

// cacheBytes is the daemon's result-cache budget: 16 shards of 8 MiB. Every
// PATCH stores a whole new entry (≈1–1.6 MB at N=4096), so a shard holds at
// least five. Between the moment a serve-write chain head is stored and the
// chain's next PATCH only len(catalogue)-1 = 3 other entries are stored, and
// serve-read's warm-up touches its catalogue after every 4 stores, so LRU
// eviction never reaches an entry a workload still needs.
const cacheBytes = 128 << 20

// bodyRelabels is how many seeded relabellings of each network serve-read
// posts, in rotation.
const bodyRelabels = 4

const contentTypeBinary = "application/x-topomap"

// network is one catalogue entry of the serve workloads.
type network struct {
	name  string
	g     *graph.Graph // generator labels
	recon *recon       // oracle reconstruction from root 0
}

// catalogue builds the serve workloads' networks: a few thousand nodes each,
// degree bounds 2 to 5, the random ones drawn from the workload seed.
func catalogue(seed int64) ([]*network, error) {
	nets := []*network{
		{name: "torus-64x64", g: graph.Torus(64, 64)},
		{name: "chordal-4096", g: graph.ChordalRing(4096, 3)},
		{name: "er-4096", g: graph.ErdosRenyi(4096, 5, 3.0/4096, subSeed(seed, 10))},
		{name: "ba-4096", g: graph.BarabasiAlbert(4096, 2, 5, subSeed(seed, 11))},
	}
	for _, nw := range nets {
		rc, err := preorder(nw.g, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", nw.name, err)
		}
		nw.recon = rc
	}
	return nets, nil
}

// twoCycle is the smallest legal network, on the degree bound delta: the
// catalogue is seeded from it without a cold engine map of the whole
// network, which would take hours at this size.
func twoCycle(delta int) *graph.Graph {
	g := graph.New(2, delta)
	g.MustConnect(0, 1, 1, 1)
	g.MustConnect(1, 1, 0, 1)
	return g
}

// seedDelta turns the two-cycle into g: add g's other nodes, drop the two
// seed edges, insert every edge of g. Node ids are g's own labels, which
// extend the two-cycle's 0 and 1.
func seedDelta(g *graph.Graph) *graph.Delta {
	d := new(graph.Delta)
	for v := 2; v < g.N(); v++ {
		d.AddNode()
	}
	d.Delete(0, 1, 1, 1).Delete(1, 1, 0, 1)
	for _, e := range g.Edges() {
		d.Insert(e.From, e.OutPort, e.To, e.InPort)
	}
	return d
}

// daemon is a topomapd child process and the benchmark's single keep-alive
// connection to it.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	client  *http.Client
	drained chan struct{}
}

// startDaemon launches topomapd on an ephemeral loopback port with the
// cache on and waits for its listening line.
func startDaemon(path string) (*daemon, error) {
	if path == "" {
		return nil, errors.New("no topomapd binary given (--daemon)")
	}
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-pool", "1",
		"-cache-bytes", strconv.Itoa(cacheBytes), "-deadline", "20s")
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start topomapd: %w", err)
	}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	_, rest, ok := strings.Cut(line, "listening on ")
	addr, _, _ := strings.Cut(rest, " ")
	if err != nil || !ok || addr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("topomapd did not report its address (read %q: %v)", line, err)
	}
	d := &daemon{
		cmd: cmd,
		url: addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		drained: make(chan struct{}),
	}
	go func() {
		_, _ = io.Copy(io.Discard, br)
		close(d.drained)
	}()
	return d, nil
}

// stop reads the daemon's peak resident set, then shuts it down (SIGTERM,
// graceful drain) and waits for it to exit.
func (d *daemon) stop() (peakMiB float64, err error) {
	peakMiB, err = peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
	d.client.CloseIdleConnections()
	if serr := d.cmd.Process.Signal(syscall.SIGTERM); serr != nil && err == nil {
		err = serr
	}
	<-d.drained
	if werr := d.cmd.Wait(); werr != nil && err == nil {
		err = fmt.Errorf("topomapd exit: %w", werr)
	}
	return peakMiB, err
}

// reply is one HTTP response, read whole.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// request is a prepared call: built before the clock starts.
type request struct {
	method, path, ctype, accept string
	body                        []byte
}

// do sends one request and reads the whole response; the duration is the
// client round trip.
func (d *daemon) do(r request) (reply, time.Duration, error) {
	req, err := http.NewRequest(r.method, d.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return reply{}, 0, err
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	if r.accept != "" {
		req.Header.Set("Accept", r.accept)
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	return reply{resp.StatusCode, resp.Header, body}, rtt, err
}

// stats reads the daemon's /stats counters the benchmark reports.
func (d *daemon) stats() (daemonStats, error) {
	var s daemonStats
	rep, _, err := d.do(request{method: http.MethodGet, path: "/stats"})
	if err != nil {
		return s, err
	}
	if rep.status != http.StatusOK {
		return s, fmt.Errorf("/stats: status %d", rep.status)
	}
	return s, json.Unmarshal(rep.body, &s)
}

type daemonStats struct {
	CacheEntries   int
	CacheEvictions uint64
	Codec          struct {
		BytesOut uint64 `json:"bytes_out"`
	} `json:"codec"`
}

// resultGraph extracts the topology from a /map result: the "graph" field
// of a JSON result, or the graph frame of a binary tmr1 result (56-byte
// header, graph length at offset 48).
func resultGraph(body []byte, binaryResult bool) (*graph.Graph, error) {
	if binaryResult {
		if len(body) < 56 || string(body[:4]) != "tmr1" {
			return nil, fmt.Errorf("not a tmr1 frame (%d bytes)", len(body))
		}
		glen := binary.LittleEndian.Uint64(body[48:])
		if uint64(len(body)-56) != glen {
			return nil, fmt.Errorf("tmr1 frame declares %d graph bytes, carries %d", glen, len(body)-56)
		}
		return graph.UnmarshalBinary(body[56:])
	}
	var res struct {
		Graph string `json:"graph"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return graph.UnmarshalString(res.Graph)
}

// checkResult checks a /map or PATCH reply: status 200, the expected
// header values, and a topology equal to the oracle's.
func checkResult(rep reply, binaryResult bool, want *graph.Graph, headers map[string]string) error {
	if rep.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	for k, v := range headers {
		if got := rep.header.Get(k); got != v {
			return fmt.Errorf("%s is %q, want %q", k, got, v)
		}
	}
	got, err := resultGraph(rep.body, binaryResult)
	if err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if !got.Equal(want) {
		return errors.New("topology differs from the preorder oracle")
	}
	return nil
}

// seedDaemon puts every catalogue network into the daemon's cache without
// an engine run of the network: POST its two-cycle, then PATCH the two-cycle
// into the network with the dirty threshold lifted. It returns each
// network's digest, which must equal the network's canonical digest.
func seedDaemon(d *daemon, nets []*network) ([]string, error) {
	digests := make([]string, len(nets))
	for i, nw := range nets {
		two := twoCycle(nw.g.Delta())
		rep, _, err := d.do(request{method: http.MethodPost, path: "/map", body: []byte(two.MarshalString())})
		if err != nil {
			return nil, err
		}
		if err := checkResult(rep, false, two, nil); err != nil {
			return nil, fmt.Errorf("%s: seed two-cycle: %w", nw.name, err)
		}
		base := rep.header.Get("X-Topomap-Digest")
		rep, _, err = d.do(request{method: http.MethodPatch, path: "/map?maxdirty=1&base=" + base,
			body: []byte(seedDelta(nw.g).MarshalText())})
		if err != nil {
			return nil, err
		}
		if err := checkResult(rep, false, nw.recon.g, map[string]string{"X-Topomap-Remap": "incremental"}); err != nil {
			return nil, fmt.Errorf("%s: seed patch: %w", nw.name, err)
		}
		digests[i] = rep.header.Get("X-Topomap-Digest")
		if want := nw.g.CanonicalDigest(0); digests[i] != hex.EncodeToString(want[:]) {
			return nil, fmt.Errorf("%s: seeded digest %s, canonical digest %x: %w", nw.name, digests[i], want, errWrong)
		}
	}
	return digests, nil
}

// serveSetup is what both serve workloads build before their loop: the
// catalogue, a running daemon, and the catalogue seeded into its cache.
type serveSetup struct {
	nets    []*network
	d       *daemon
	digests []string
}

func newServeSetup(cfg config) (*serveSetup, error) {
	nets, err := catalogue(cfg.seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.daemon)
	if err != nil {
		return nil, err
	}
	digests, err := seedDaemon(d, nets)
	if err != nil {
		_, _ = d.stop()
		return nil, err
	}
	return &serveSetup{nets: nets, d: d, digests: digests}, nil
}

// timeServeSetups runs the serve set-up setupReps times, stopping each
// daemon but the last outside the timed part, and returns the last set-up
// with build (run inside the timed part) applied to it.
func timeServeSetups(cfg config, build func(*serveSetup) error) (*serveSetup, []time.Duration, error) {
	var ss *serveSetup
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		if ss != nil {
			if _, err := ss.d.stop(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if ss, err = newServeSetup(cfg); err == nil && build != nil {
			if err = build(ss); err != nil {
				_, _ = ss.d.stop()
			}
		}
		if err != nil {
			return nil, nil, err
		}
		ds = append(ds, time.Since(start))
	}
	return ss, ds, nil
}

// readBody is one prepared POST /map body of serve-read.
type readBody struct {
	text, bin []byte
	root      int
}

// readCell is one serve-read cell: a network × body codec × result codec.
type readCell struct {
	net           int
	binIn, binOut bool
}

func (c readCell) name(nets []*network) string {
	in, out := "text", "json"
	if c.binIn {
		in = "tmg1"
	}
	if c.binOut {
		out = "tmr1"
	}
	return nets[c.net].name + "/" + in + "/" + out
}

func readCells(nets []*network) ([]readCell, []string) {
	var cs []readCell
	var names []string
	for i := range nets {
		for _, binIn := range []bool{false, true} {
			for _, binOut := range []bool{false, true} {
				c := readCell{i, binIn, binOut}
				cs = append(cs, c)
				names = append(names, c.name(nets))
			}
		}
	}
	return cs, names
}

// readBodies encodes bodyRelabels seeded relabellings of every network in
// both codecs; the root moves with its label.
func readBodies(seed int64, nets []*network) ([][]readBody, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	bodies := make([][]readBody, len(nets))
	for i, nw := range nets {
		for k := 0; k < bodyRelabels; k++ {
			h, root := relabelled(nw.g, 0, rng, false)
			bin, err := h.MarshalBinary()
			if err != nil {
				return nil, err
			}
			bodies[i] = append(bodies[i], readBody{text: []byte(h.MarshalString()), bin: bin, root: root})
		}
	}
	return bodies, nil
}

// readRequest is the POST /map of one serve-read cell in round r.
func readRequest(c readCell, b readBody) request {
	r := request{method: http.MethodPost, path: "/map?root=" + strconv.Itoa(b.root), body: b.text}
	if c.binIn {
		r.body, r.ctype = b.bin, contentTypeBinary
	}
	if c.binOut {
		r.accept = contentTypeBinary
	}
	return r
}

var hitHeader = map[string]string{"X-Topomap-Cache": "hit"}

// warmRounds is how many edge-op PATCHes per catalogue network warmCache
// stores before serve-read's loop: enough to fill the cache to its budget.
const warmRounds = 32

// warmCache fills topomapd's cache to its budget the way a serving
// daemon's fills: with the results of PATCH chains on the catalogue, drawn
// and checked as in serve-write, each round of four followed by a hit on
// every catalogue network so that LRU keeps them. A full cache, not the
// collector's timing while the seed PATCHes' garbage was collected, then
// sets topomapd's peak resident set, which otherwise moved between 44 and
// 68 MiB with that timing.
func warmCache(seed int64, ss *serveSetup, bodies [][]readBody) error {
	chains := newChains(subSeed(seed, 4), ss)
	for r := 0; r < warmRounds; r++ {
		for i, c := range chains {
			s, err := c.prepare(stepEdge, (r+i)%2 == 1)
			if err != nil {
				return err
			}
			req, err := patchRequest(s, c.base)
			if err != nil {
				return err
			}
			rep, _, err := ss.d.do(req)
			if err != nil {
				return err
			}
			if err := checkResult(rep, s.binary, s.next.g, incrementalHeader); err != nil {
				return fmt.Errorf("warm %s: %v: %w", c.name, err, errWrong)
			}
			c.advance(s, rep.header.Get("X-Topomap-Digest"))
		}
		for i := range ss.nets {
			b := bodies[i][0]
			rep, _, err := ss.d.do(readRequest(readCell{net: i, binIn: true, binOut: true}, b))
			if err != nil {
				return err
			}
			if err := checkResult(rep, true, ss.nets[i].recon.g, hitHeader); err != nil {
				return fmt.Errorf("warm %s: %v: %w", ss.nets[i].name, err, errWrong)
			}
		}
	}
	return nil
}

// sansElapsed returns a copy of a /map result with its wall-clock field
// zeroed — a JSON result's "elapsed_ms" value, a tmr1 frame's elapsed_us
// at offset 40 — the only part in which two hits on one entry differ.
func sansElapsed(body []byte, binaryResult bool) []byte {
	out := append([]byte(nil), body...)
	if binaryResult {
		if len(out) >= 48 {
			clear(out[40:48])
		}
		return out
	}
	const key = `"elapsed_ms": `
	if i := bytes.Index(out, []byte(key)); i >= 0 {
		j := i + len(key)
		k := j
		for k < len(out) && out[k] >= '0' && out[k] <= '9' {
			k++
		}
		out = append(out[:j], append([]byte("0"), out[k:]...)...)
	}
	return out
}

// runServeRead posts relabelled copies of the seeded networks: every
// request must be a cache hit whose topology equals the oracle's.
func runServeRead(cfg config) (*outcome, error) {
	var bodies [][]readBody
	ss, setups, err := timeServeSetups(cfg, func(ss *serveSetup) (err error) {
		if bodies, err = readBodies(cfg.seed, ss.nets); err != nil {
			return err
		}
		return warmCache(cfg.seed, ss, bodies)
	})
	if err != nil {
		return nil, err
	}
	cs, names := readCells(ss.nets)
	o := &outcome{setups: setups, cells: newCells(names)}
	var chk checker
	// verified holds, per cell and body, a response already checked against
	// the oracle, its wall-clock field zeroed: a later response identical
	// to it up to that field needs no second decode.
	verified := map[[2]int][]byte{}
	err = loop(cfg.budget, func(r int) error {
		for i, c := range cs {
			rep, rtt, err := ss.d.do(readRequest(c, bodies[c.net][r%bodyRelabels]))
			o.attempted++
			if err != nil || rep.status != http.StatusOK {
				o.failed++
				continue
			}
			o.cells.add(i, rtt)
			key, body := [2]int{i, r % bodyRelabels}, sansElapsed(rep.body, c.binOut)
			if bytes.Equal(verified[key], body) && rep.header.Get("X-Topomap-Cache") == "hit" {
				continue
			}
			if err := checkResult(rep, c.binOut, ss.nets[c.net].recon.g, hitHeader); err != nil {
				chk.failf("serve-read %s: %v", names[i], err)
				continue
			}
			verified[key] = body
		}
		return nil
	})
	peak, serr := ss.d.stop()
	if err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	o.wrong, o.peakMiB = chk.wrong, peak
	return o, nil
}
