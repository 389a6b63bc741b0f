package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"topomap"
	"topomap/internal/graph"
)

// syncBuffer is a strings.Builder safe for the daemon goroutine and the
// test to share.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestEndToEndRing64 is the CI smoke: boot the real daemon on an ephemeral
// port, POST a generated ring-64 in the text format, assert the
// reconstruction verifies against the truth (both the daemon's own verdict
// and a client-side check of the returned graph), confirm /stats reports the
// served run, and shut down gracefully.
func TestEndToEndRing64(t *testing.T) {
	var out, errOut syncBuffer
	stop := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-pool", "2"}, &out, &errOut, stop)
	}()

	// Wait for the daemon to announce its address.
	addrRe := regexp.MustCompile(`listening on (http://[^ ]+)`)
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon did not start:\nstdout: %s\nstderr: %s", out.String(), errOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	truth := topomap.Ring(64)
	resp, err := http.Post(base+"/map", "text/plain", strings.NewReader(truth.MarshalString()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /map: %d: %s", resp.StatusCode, body)
	}
	var res mapResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad result JSON: %v\n%s", err, body)
	}
	if !res.Exact {
		t.Fatalf("daemon reports inexact reconstruction: %+v", res)
	}
	if res.N != 64 || res.Ticks <= 0 || res.Messages <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	// Client-side verification from the returned text, independent of the
	// daemon's own verdict.
	mapped, err := graph.UnmarshalString(res.Graph)
	if err != nil {
		t.Fatalf("returned graph does not parse: %v", err)
	}
	if !topomap.Verify(truth, 0, mapped) {
		t.Fatal("returned reconstruction does not verify against the truth")
	}

	// /stats must show exactly this one served run.
	var st topomap.ServiceStats
	getJSON(t, base+"/stats", &st)
	if st.Served != 1 || st.Failed != 0 {
		t.Fatalf("stats after one run: %+v", st)
	}
	// Memory telemetry must be live after a served run: the engine and
	// arena footprints are nonzero, and bytes/node is consistent.
	if st.EngineBytes <= 0 || st.ArenaBytes <= 0 || st.EngineBytesPerNode <= 0 {
		t.Fatalf("memory telemetry missing after one run: %+v", st)
	}
	if st.HeapInUse == 0 {
		t.Fatalf("heap-in-use not reported: %+v", st)
	}

	// /healthz answers.
	var health map[string]any
	getJSON(t, base+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}

	// Graceful shutdown.
	stop <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "served 1 runs") {
		t.Fatalf("shutdown summary missing:\n%s", out.String())
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// newTestServer wires the handler into an httptest server; the pool is
// closed with the test.
func newTestServer(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.svc.Close()
	})
	return ts
}

// TestGeneratorShorthand: ?family=...&n=...&seed=... builds the graph
// server-side; per-request roots are honoured.
func TestGeneratorShorthand(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, MaxNodes: 1 << 16})
	resp, err := http.Get(ts.URL + "/map?family=torus&n=16&seed=3&root=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res mapResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !res.Exact || res.Root != 5 {
		t.Fatalf("shorthand map failed: %d %+v", resp.StatusCode, res)
	}
}

// TestStreamSSE: progress events then a result, in SSE framing.
func TestStreamSSE(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, MaxNodes: 1 << 16})
	resp, err := http.Get(ts.URL + "/map?family=ring&n=64&stream=sse&every=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: progress") {
		t.Fatalf("no progress events in stream:\n%.500s", text)
	}
	if !strings.Contains(text, "event: result") {
		t.Fatalf("no result event in stream:\n%.500s", text)
	}
	// The result payload is the last data: line; it must verify.
	lines := strings.Split(strings.TrimSpace(text), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "data: ") {
		t.Fatalf("stream does not end with a data line: %q", last)
	}
	var res mapResult
	if err := json.Unmarshal([]byte(strings.TrimPrefix(last, "data: ")), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.N != 64 {
		t.Fatalf("streamed result wrong: %+v", res)
	}
}

// TestStreamNDJSON: chunked JSON lines with a final result line.
func TestStreamNDJSON(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, MaxNodes: 1 << 16})
	resp, err := http.Get(ts.URL + "/map?family=ring&n=32&stream=ndjson&every=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected progress + result lines, got %d", len(lines))
	}
	var final struct {
		Result *mapResult `json:"result"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Result == nil || !final.Result.Exact {
		t.Fatalf("final line is not an exact result: %s", lines[len(lines)-1])
	}
	for _, l := range lines[:len(lines)-1] {
		var p struct {
			Progress *progressEvent `json:"progress"`
		}
		if err := json.Unmarshal([]byte(l), &p); err != nil || p.Progress == nil {
			t.Fatalf("bad progress line %q: %v", l, err)
		}
	}
}

// TestBadRequests: the daemon's input validation on the untrusted surface.
func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, MaxNodes: 32})
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"malformed body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/map", "text/plain", strings.NewReader("not a graph"))
		}, http.StatusBadRequest},
		{"bad family", func() (*http.Response, error) {
			return http.Get(ts.URL + "/map?family=klein-bottle")
		}, http.StatusBadRequest},
		{"root out of range", func() (*http.Response, error) {
			return http.Get(ts.URL + "/map?family=ring&n=8&root=99")
		}, http.StatusBadRequest},
		{"oversized graph", func() (*http.Response, error) {
			return http.Post(ts.URL+"/map", "text/plain", strings.NewReader(topomap.Ring(64).MarshalString()))
		}, http.StatusRequestEntityTooLarge},
		{"oversized family", func() (*http.Response, error) {
			return http.Get(ts.URL + "/map?family=ring&n=64")
		}, http.StatusBadRequest},
		{"bad stream mode", func() (*http.Response, error) {
			return http.Get(ts.URL + "/map?family=ring&n=8&stream=carrier-pigeon")
		}, http.StatusBadRequest},
		{"bad deadline", func() (*http.Response, error) {
			return http.Get(ts.URL + "/map?family=ring&n=8&deadline=yesterday")
		}, http.StatusBadRequest},
		{"wrong method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/map?family=ring&n=8", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
		{"unmappable graph", func() (*http.Response, error) {
			// Parses, but fails validation (not strongly connected).
			return http.Post(ts.URL+"/map", "text/plain",
				strings.NewReader("topomap-graph v1\nnodes 3 delta 2\nedge 0 1 1 1\nedge 1 1 0 1\n"))
		}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
		})
	}
}

// TestBackpressure503: a full queue answers 503 with Retry-After rather
// than queueing unboundedly.
func TestBackpressure503(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, Queue: -1, MaxNodes: 1 << 16})

	// Occupy the single session with a slow map, using a cancellable
	// request so the test can reclaim it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/map?family=ring&n=256", nil)
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()

	// Wait until the pool reports the run in flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st topomap.ServiceStats
		getJSON(t, ts.URL+"/stats", &st)
		if st.Running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow run never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/map?family=ring&n=8")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 under backpressure, got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}

	// Client disconnect cancels the in-flight job (the request context is
	// the job context), freeing the pool.
	cancel()
	<-slowDone
	deadline = time.Now().Add(10 * time.Second)
	for {
		var st topomap.ServiceStats
		getJSON(t, ts.URL+"/stats", &st)
		if st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled run never released the session")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the pool serves again.
	resp, err = http.Get(ts.URL + "/map?family=ring&n=8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pool did not recover after cancel: %d", resp.StatusCode)
	}
}

// TestDeadline504: a per-request deadline that fires mid-run comes back as
// a gateway timeout.
func TestDeadline504(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, MaxNodes: 1 << 16})
	resp, err := http.Get(ts.URL + "/map?family=ring&n=256&deadline=30ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("expected 504, got %d: %s", resp.StatusCode, body)
	}
}

// TestBadFlag: flag-parse errors exit 2 like the other CLIs.
func TestBadFlag(t *testing.T) {
	var out, errOut syncBuffer
	if code := run([]string{"-nonsense"}, &out, &errOut, make(chan os.Signal)); code != 2 {
		t.Fatalf("bad flag should exit 2, got %d", code)
	}
}

// TestBadAddr: an unusable listen address is a clean failure.
func TestBadAddr(t *testing.T) {
	var out, errOut syncBuffer
	if code := run([]string{"-addr", "256.256.256.256:1"}, &out, &errOut, make(chan os.Signal)); code != 1 {
		t.Fatalf("bad addr should exit 1, got %d (stderr: %s)", code, errOut.String())
	}
}
