package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"topomap"
	"topomap/internal/graph"
)

// postMap POSTs body to /map with the given headers and returns the
// response with its fully-read payload.
func postMap(t *testing.T, url, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, payload
}

// TestBinaryNegotiationEndToEnd drives all four codec combinations through
// the live HTTP surface — text/JSON, text/binary, binary/JSON,
// binary/binary — asserting the X-Topomap-Codec header, identical mapping
// outcomes, and that the binary response's embedded graph round-trips to
// the same reconstruction the JSON path reports.
func TestBinaryNegotiationEndToEnd(t *testing.T) {
	ts := newTestServer(t, serverConfig{
		Pool: 1, MaxNodes: 1 << 16, CacheBytes: 1 << 20,
	})
	truth := topomap.Ring(48)
	text := []byte(truth.MarshalString())
	bin, err := truth.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// text in, JSON out (the legacy pairing).
	resp, payload := postMap(t, ts.URL+"/map", "text/plain", "", text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text/json: %d: %s", resp.StatusCode, payload)
	}
	if h := resp.Header.Get("X-Topomap-Codec"); h != "text/json" {
		t.Fatalf("codec header %q, want text/json", h)
	}
	var jres mapResult
	if err := json.Unmarshal(payload, &jres); err != nil {
		t.Fatal(err)
	}
	if !jres.Exact {
		t.Fatal("ring-48 must map exactly")
	}

	// binary in (declared), binary out.
	resp, payload = postMap(t, ts.URL+"/map", contentTypeBinary, contentTypeBinary, bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary/binary: %d: %s", resp.StatusCode, payload)
	}
	if h := resp.Header.Get("X-Topomap-Codec"); h != "binary/binary" {
		t.Fatalf("codec header %q, want binary/binary", h)
	}
	if ct := resp.Header.Get("Content-Type"); ct != contentTypeBinary {
		t.Fatalf("content type %q, want %q", ct, contentTypeBinary)
	}
	bres, err := parseBinaryResult(payload)
	if err != nil {
		t.Fatalf("bad result frame: %v", err)
	}
	if !bres.Exact || bres.N != jres.N || bres.Delta != jres.Delta || bres.Edges != jres.Edges ||
		bres.Ticks != jres.Ticks || bres.Messages != jres.Messages ||
		bres.Transactions != int64(jres.Transactions) {
		t.Fatalf("binary result diverges from JSON: %+v vs %+v", bres, jres)
	}
	mapped, err := graph.UnmarshalBinary(bres.GraphBin)
	if err != nil {
		t.Fatalf("embedded graph frame: %v", err)
	}
	fromJSON, err := topomap.UnmarshalGraphString(jres.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Equal(fromJSON) {
		t.Fatal("binary and JSON paths returned different reconstructions")
	}
	if !topomap.Verify(truth, 0, mapped) {
		t.Fatal("binary-served reconstruction does not verify")
	}

	// binary in (sniffed, no Content-Type), JSON out.
	resp, payload = postMap(t, ts.URL+"/map", "", "", bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sniffed binary: %d: %s", resp.StatusCode, payload)
	}
	if h := resp.Header.Get("X-Topomap-Codec"); h != "binary/json" {
		t.Fatalf("codec header %q, want binary/json", h)
	}

	// text in, binary out.
	resp, payload = postMap(t, ts.URL+"/map", "text/plain", contentTypeBinary, text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text/binary: %d: %s", resp.StatusCode, payload)
	}
	if h := resp.Header.Get("X-Topomap-Codec"); h != "text/binary" {
		t.Fatalf("codec header %q, want text/binary", h)
	}
	if _, err := parseBinaryResult(payload); err != nil {
		t.Fatal(err)
	}

	// graph=0 negotiated binary: a bare 56-byte frame.
	resp, payload = postMap(t, ts.URL+"/map?graph=0", contentTypeBinary, contentTypeBinary, bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph=0 binary: %d: %s", resp.StatusCode, payload)
	}
	if len(payload) != resultHeaderSize {
		t.Fatalf("graph-less frame is %d bytes, want %d", len(payload), resultHeaderSize)
	}
	slim, err := parseBinaryResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if slim.GraphBin != nil || !slim.Exact || slim.N != jres.N {
		t.Fatalf("graph-less frame: %+v", slim)
	}

	// Streaming plus binary Accept is an explicit 406, not a downgrade.
	resp, _ = postMap(t, ts.URL+"/map?stream=sse", "text/plain", contentTypeBinary, text)
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("stream+binary: %d, want 406", resp.StatusCode)
	}

	// Codec counters add up across everything above. The 406'd stream
	// request decoded its text body before negotiation failed, so it counts
	// as a third text request with no response counterpart.
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	c := st.Codec
	if c.TextRequests != 3 || c.BinaryRequests != 3 {
		t.Fatalf("request counters: %+v", c)
	}
	if c.BinaryResponses != 3 || c.JSONResponses != 2 {
		t.Fatalf("response counters: %+v", c)
	}
	if c.BytesIn == 0 || c.BytesOut == 0 {
		t.Fatalf("byte counters not accumulating: %+v", c)
	}
	if c.DecodeErrors != 0 {
		t.Fatalf("clean run counted decode errors: %+v", c)
	}
}

// TestCodecDecodeErrors: malformed bodies in either codec answer 400 with a
// located error and bump the decode-error counter; the daemon's -maxnodes
// decode limit applies to binary headers before any allocation.
func TestCodecDecodeErrors(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, MaxNodes: 256})

	resp, payload := postMap(t, ts.URL+"/map", "text/plain",
		"", []byte("topomap-graph v1\nnodes 4 delta 1\nedge 0 1 zz 1\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed text: %d", resp.StatusCode)
	}
	if !strings.Contains(string(payload), "byte 42") {
		t.Fatalf("text error must locate the byte offset: %s", payload)
	}

	resp, payload = postMap(t, ts.URL+"/map", contentTypeBinary, "", []byte("tmg1garbage"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed binary: %d", resp.StatusCode)
	}

	// A binary header declaring a graph beyond the -maxnodes-derived decode
	// limit is rejected from the header alone, before any allocation.
	hdr := make([]byte, graph.BinaryHeaderSize)
	copy(hdr, "tmg1")
	hdr[4] = 1   // version
	hdr[5] = 255 // delta
	binary.LittleEndian.PutUint32(hdr[8:], 1<<20)
	resp, payload = postMap(t, ts.URL+"/map", contentTypeBinary, "", hdr)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized binary header: %d: %s", resp.StatusCode, payload)
	}
	if !strings.Contains(string(payload), "decode limit") {
		t.Fatalf("want decode-limit rejection, got: %s", payload)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Codec.DecodeErrors != 3 {
		t.Fatalf("decode errors %d, want 3", st.Codec.DecodeErrors)
	}
}

// TestBinaryHitFastPath: with the cache warm, a negotiated-binary repeat
// request is served from the zero-copy path — X-Topomap-Cache: hit, a
// byte-identical frame body (modulo the per-request scalars), and the
// service's hit counter moving without Served moving.
func TestBinaryHitFastPath(t *testing.T) {
	ts := newTestServer(t, serverConfig{
		Pool: 1, MaxNodes: 1 << 16, CacheBytes: 1 << 20,
	})
	truth := topomap.Ring(64)
	bin, err := truth.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	resp, cold := postMap(t, ts.URL+"/map", contentTypeBinary, contentTypeBinary, bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d: %s", resp.StatusCode, cold)
	}
	if h := resp.Header.Get("X-Topomap-Cache"); h != "miss" {
		t.Fatalf("cold cache header %q", h)
	}
	resp, hot := postMap(t, ts.URL+"/map", contentTypeBinary, contentTypeBinary, bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hot: %d: %s", resp.StatusCode, hot)
	}
	if h := resp.Header.Get("X-Topomap-Cache"); h != "hit" {
		t.Fatalf("hot cache header %q", h)
	}
	cres, err := parseBinaryResult(cold)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := parseBinaryResult(hot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cres.GraphBin, hres.GraphBin) {
		t.Fatal("hit served different graph bytes than the populating run")
	}
	if hres.Exact != cres.Exact || hres.Ticks != cres.Ticks || hres.Messages != cres.Messages {
		t.Fatalf("hit scalars diverge: %+v vs %+v", hres, cres)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.CacheHits != 1 || st.Served != 1 {
		t.Fatalf("fast path ran the engine: hits=%d served=%d", st.CacheHits, st.Served)
	}
	if st.AvgHit <= 0 {
		t.Fatal("hit latency not recorded through the fast path")
	}
}

// TestMetricsCodecCounters: the Prometheus surface exposes the codec
// counters with per-format labels.
func TestMetricsCodecCounters(t *testing.T) {
	ts := newTestServer(t, serverConfig{Pool: 1, MaxNodes: 1 << 16})
	truth := topomap.Ring(16)
	bin, err := truth.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if resp, payload := postMap(t, ts.URL+"/map", contentTypeBinary, "", bin); resp.StatusCode != http.StatusOK {
		t.Fatalf("map: %d: %s", resp.StatusCode, payload)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`topomapd_codec_requests_total{codec="binary"} 1`,
		`topomapd_codec_requests_total{codec="text"} 0`,
		`topomapd_codec_responses_total{codec="json"} 1`,
		"topomapd_codec_decode_errors_total 0",
		"topomapd_codec_bytes_in_total",
		"topomapd_codec_bytes_out_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}
