package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"topomap"
)

// TestCacheHeaderAndStats: with -cache-bytes on, a repeat request is served
// from the cache — X-Topomap-Cache flips miss → hit, the payload is
// identical, /stats carries the cache counters, and ?nocache=1 bypasses.
func TestCacheHeaderAndStats(t *testing.T) {
	ts := newTestServer(t, serverConfig{
		Pool: 1, MaxNodes: 1 << 16, CacheBytes: 1 << 20,
	})
	get := func(url string) (*http.Response, mapResult) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
		}
		var res mapResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("bad result JSON: %v\n%s", err, body)
		}
		return resp, res
	}

	url := ts.URL + "/map?family=ring&n=64&graph=0"
	resp, cold := get(url)
	if h := resp.Header.Get("X-Topomap-Cache"); h != "miss" {
		t.Fatalf("first request header %q, want miss", h)
	}
	resp, hot := get(url)
	if h := resp.Header.Get("X-Topomap-Cache"); h != "hit" {
		t.Fatalf("repeat request header %q, want hit", h)
	}
	if !hot.Exact || hot.N != cold.N || hot.Ticks != cold.Ticks ||
		hot.Messages != cold.Messages || hot.Transactions != cold.Transactions {
		t.Fatalf("cached payload diverges: cold=%+v hot=%+v", cold, hot)
	}

	resp, _ = get(url + "&nocache=1")
	if h := resp.Header.Get("X-Topomap-Cache"); h != "" {
		t.Fatalf("nocache request carried header %q", h)
	}

	var st topomap.ServiceStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
	// The hit did not run the engine; the miss and the bypass did.
	if st.Served != 2 {
		t.Fatalf("served %d runs, want 2", st.Served)
	}
	if st.AvgHit <= 0 || st.AvgHit >= st.AvgRun {
		t.Fatalf("hit latency %v not under run latency %v", st.AvgHit, st.AvgRun)
	}
}

// TestCacheOffNoHeader: without -cache-bytes the header never appears and
// the cache counters stay zero.
func TestCacheOffNoHeader(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, MaxNodes: 1 << 16})
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/map?family=ring&n=16&graph=0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if h := resp.Header.Get("X-Topomap-Cache"); h != "" {
			t.Fatalf("cache-less daemon sent header %q", h)
		}
	}
	var st topomap.ServiceStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Served != 2 || st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("cache-less stats: %+v", st)
	}
}

// TestStreamCacheHeader: streamed responses carry the header too.
func TestStreamCacheHeader(t *testing.T) {
	ts := newTestServer(t, serverConfig{
		Pool: 1, MaxNodes: 1 << 16, CacheBytes: 1 << 20,
	})
	url := ts.URL + "/map?family=ring&n=32&stream=ndjson"
	for i, want := range []string{"miss", "hit"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if h := resp.Header.Get("X-Topomap-Cache"); h != want {
			t.Fatalf("stream %d header %q, want %q", i, h, want)
		}
		if !strings.Contains(string(body), `"result"`) {
			t.Fatalf("stream %d missing result line:\n%.300s", i, body)
		}
	}
}

// TestMetricsEndpoint: /metrics serves the pool counters in the Prometheus
// text format, cache metrics included.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, serverConfig{
		Pool: 1, MaxNodes: 1 << 16, CacheBytes: 1 << 20,
	})
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/map?family=ring&n=24&graph=0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE topomapd_runs_served_total counter",
		"topomapd_runs_served_total 1",
		"topomapd_cache_hits_total 1",
		"topomapd_cache_misses_total 1",
		"topomapd_cache_entries 1",
		"topomapd_queue_wait_seconds_count 1",
		"topomapd_pool_sessions 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	postResp, err := http.Post(ts.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, postResp.Body)
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %d, want 405", postResp.StatusCode)
	}
}
