package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"topomap/internal/core"
	"topomap/internal/graph"
	"topomap/internal/remap"
	"topomap/internal/service"
)

// inprocess is the in-process twin of the daemon: a service.Pool with the
// daemon's cache budget and run options, seeded the same way.
type inprocess struct {
	pool    *service.Pool
	digests []graph.Digest
}

func newInprocess(nets []*network) (*inprocess, error) {
	ip := &inprocess{pool: service.New(service.Options{
		Size:       1,
		CacheBytes: cacheBytes,
		Run:        core.Options{Workers: 1},
	})}
	ctx := context.Background()
	for _, nw := range nets {
		root := 0
		j, err := ip.pool.Submit(ctx, twoCycle(nw.g.Delta()), service.JobOptions{Root: &root})
		if err != nil {
			ip.pool.Close()
			return nil, err
		}
		if _, err := j.Await(ctx); err != nil {
			ip.pool.Close()
			return nil, err
		}
		base, _ := j.Digest()
		out, err := ip.pool.Remap(ctx, base, seedDelta(nw.g), remap.Options{MaxDirtyFrac: 1})
		if err != nil {
			ip.pool.Close()
			return nil, fmt.Errorf("%s: in-process seed: %w", nw.name, err)
		}
		if !out.Ent.Res.Topology.Equal(nw.recon.g) {
			ip.pool.Close()
			return nil, fmt.Errorf("%s: in-process seed: %w", nw.name, errWrong)
		}
		ip.digests = append(ip.digests, out.Digest)
	}
	return ip, nil
}

// respond encodes a result the way the daemon's hit and PATCH paths do:
// the entry's pre-encoded text inside indented JSON, or a tmr1 header
// followed by the entry's pre-encoded graph frame.
func respond(buf *bytes.Buffer, ent *service.Cached, dig graph.Digest, binaryResult bool) error {
	buf.Reset()
	if binaryResult {
		var hdr [56]byte
		copy(hdr[:], "tmr1")
		buf.Write(hdr[:])
		buf.Write(ent.Bin)
		return nil
	}
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		N      int    `json:"n"`
		Digest string `json:"digest"`
		Graph  string `json:"graph"`
	}{ent.Res.Topology.N(), fmt.Sprintf("%x", dig[:]), ent.Text})
}

// daemonCounters records the daemon's /stats counters as workload totals;
// bytes_out is per request since the snapshot before.
func daemonCounters(l *layers, d *daemon, before daemonStats, requests int64) error {
	after, err := d.stats()
	if err != nil {
		return err
	}
	l.total("topomapd.bytes_out", "B", float64(after.Codec.BytesOut-before.Codec.BytesOut)/float64(requests))
	l.total("cache.entries", "count", float64(after.CacheEntries))
	l.total("cache.evictions", "count", float64(after.CacheEvictions))
	return nil
}

// traceServeRead replays every serve-read request in process after sending
// it to the daemon: decode the body, Service.LookupDigest, encode the
// response; then the canonical digest alone on the decoded graph and the
// lookup once more. The round trip minus the in-process replay is the HTTP
// layer's share.
func traceServeRead(cfg config, tr *tracer, o *outcome) (*layers, error) {
	ss, err := newServeSetup(cfg)
	if err != nil {
		return nil, err
	}
	defer ss.d.stop()
	bodies, err := readBodies(cfg.seed, ss.nets)
	if err != nil {
		return nil, err
	}
	if err := warmCache(cfg.seed, ss, bodies); err != nil {
		return nil, err
	}
	ip, err := newInprocess(ss.nets)
	if err != nil {
		return nil, err
	}
	defer ip.pool.Close()
	before, err := ss.d.stats()
	if err != nil {
		return nil, err
	}
	cs, names := readCells(ss.nets)
	l := newLayers("serve-read", names)
	var chk checker
	var buf bytes.Buffer
	var requests int64
	err = loop(cfg.budget, func(r int) error {
		for i, c := range cs {
			tr.newOp()
			o.attempted += 2
			b := bodies[c.net][r%bodyRelabels]
			req := readRequest(c, b)
			s := tr.begin("topomapd.request", -1)
			rep, rtt, err := ss.d.do(req)
			tr.end(s)
			requests++
			if err != nil || rep.status != 200 {
				o.failed++
				continue
			}
			l.time("topomapd.rtt_ms", i, rtt)
			if err := checkResult(rep, c.binOut, ss.nets[c.net].recon.g, hitHeader); err != nil {
				chk.failf("serve-read %s: %v", names[i], err)
			}

			parent := tr.begin("serve-read.inprocess", -1)
			var g *graph.Graph
			if c.binIn {
				s = tr.begin("graph.decode_bin", parent)
				g, err = graph.UnmarshalBinary(req.body)
				l.time("graph.decode_bin_ms", i, tr.end(s))
			} else {
				s = tr.begin("graph.decode_text", parent)
				g, err = graph.Unmarshal(bytes.NewReader(req.body))
				l.time("graph.decode_text_ms", i, tr.end(s))
			}
			if err != nil {
				return err
			}
			l.time("graph.decode_ms", i, tr.spanTime(s))
			s = tr.begin("service.lookup", parent)
			ent, dig, _ := ip.pool.LookupDigest(g, b.root)
			l.time("service.lookup_ms", i, tr.end(s))
			if ent == nil {
				o.failed++
				tr.end(parent)
				continue
			}
			err = respond(&buf, ent, dig, c.binOut)
			l.time("inprocess_ms", i, tr.end(parent))
			if err != nil {
				return err
			}
			if !ent.Res.Topology.Equal(ss.nets[c.net].recon.g) {
				chk.failf("serve-read %s: in-process hit differs from the oracle", names[i])
			}

			// The digest alone, then the lookup again right after it, both
			// on the decoded graph in the same cache state: their
			// difference is the cache read.
			s = tr.begin("graph.digest", -1)
			g.CanonicalDigest(b.root)
			l.time("graph.digest_ms", i, tr.end(s))
			s = tr.begin("service.lookup", -1)
			ip.pool.LookupDigest(g, b.root)
			l.time("service.lookup_again_ms", i, tr.end(s))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := daemonCounters(l, ss.d, before, requests); err != nil {
		return nil, err
	}
	l.diff("cache.get_ms", "service.lookup_again_ms", "graph.digest_ms")
	l.diff("topomapd.http_ms", "topomapd.rtt_ms", "inprocess_ms")
	l.diff("unexplained_ms", "topomapd.rtt_ms", "graph.decode_ms", "graph.digest_ms", "cache.get_ms")
	o.wrong = chk.wrong
	return l, nil
}

// traceServeWrite walks the same PATCH chains as serve-write, replaying
// each PATCH in process after the daemon answered it: decode the delta,
// Service.Remap, encode the response. Then, on the same base and delta,
// the layers Service.Remap is made of: remap.Patch, the post-delta
// canonical digest, both encodings of the post-delta reconstruction, and
// (node removals) Validate of a fresh copy of it.
func traceServeWrite(cfg config, tr *tracer, o *outcome) (*layers, error) {
	ss, err := newServeSetup(cfg)
	if err != nil {
		return nil, err
	}
	defer ss.d.stop()
	ip, err := newInprocess(ss.nets)
	if err != nil {
		return nil, err
	}
	defer ip.pool.Close()
	before, err := ss.d.stats()
	if err != nil {
		return nil, err
	}
	chains := newChains(cfg.seed, ss)
	names := writeCellNames(ss.nets)
	l := newLayers("serve-write", names)
	var chk checker
	var buf bytes.Buffer
	var requests int64
	ctx := context.Background()
	err = loop(cfg.budget, func(int) error {
		for k, kind := range writeSteps {
			for i, c := range chains {
				st, err := c.prepare(kind, k%2 == 1)
				if err != nil {
					return err
				}
				if st == nil {
					continue
				}
				req, err := patchRequest(st, c.base)
				if err != nil {
					return err
				}
				cell := writeCell(i, st)
				tr.newOp()
				o.attempted += 2
				s := tr.begin("topomapd.request", -1)
				rep, rtt, err := ss.d.do(req)
				tr.end(s)
				requests++
				if err != nil || rep.status != 200 {
					o.failed++
					continue
				}
				l.time("topomapd.rtt_ms", cell, rtt)
				if err := checkResult(rep, st.binary, st.next.g, incrementalHeader); err != nil {
					chk.failf("serve-write %s: %v", names[cell], err)
				}

				opts := remap.Options{}
				if st.removal {
					opts.MaxDirtyFrac = 1
				}
				parent := tr.begin("serve-write.inprocess", -1)
				s = tr.begin("graph.delta_decode", parent)
				var d *graph.Delta
				if st.binary {
					_, d, err = graph.UnmarshalDeltaBinary(req.body)
				} else {
					d, err = graph.UnmarshalDeltaString(strings.TrimSpace(string(req.body)))
				}
				l.time("graph.delta_decode_ms", cell, tr.end(s))
				if err != nil {
					return err
				}
				s = tr.begin("service.remap", parent)
				out, err := ip.pool.Remap(ctx, ip.digests[i], d, opts)
				l.time("service.remap_ms", cell, tr.end(s))
				if err != nil {
					o.failed++
					tr.end(parent)
					c.advance(st, rep.header.Get("X-Topomap-Digest"))
					continue
				}
				err = respond(&buf, out.Ent, out.Digest, st.binary)
				l.time("inprocess_ms", cell, tr.end(parent))
				if err != nil {
					return err
				}
				if out.Kind != service.RemapIncremental || !out.Ent.Res.Topology.Equal(st.next.g) {
					chk.failf("serve-write %s: in-process remap (%v) differs from the oracle", names[cell], out.Kind)
				}
				ip.digests[i] = out.Digest

				state, err := remap.Derive(c.cur.g)
				if err != nil {
					return err
				}
				s = tr.begin("remap.patch", -1)
				res, err := remap.Patch(c.cur.g, state, d, opts)
				l.time("remap.patch_ms", cell, tr.end(s))
				if err != nil {
					return fmt.Errorf("remap.Patch: %w", err)
				}
				l.count("remap.dirty", "count", cell, float64(res.Dirty))
				s = tr.begin("graph.digest", -1)
				res.Graph.CanonicalDigest(0)
				l.time("graph.digest_ms", cell, tr.end(s))
				s = tr.begin("graph.encode", -1)
				res.Graph.MarshalString()
				_, err = res.Graph.MarshalBinary()
				l.time("graph.encode_ms", cell, tr.end(s))
				if err != nil {
					return err
				}
				if st.removal {
					fresh := res.Graph.Clone()
					s = tr.begin("graph.validate", -1)
					err = fresh.Validate()
					l.time("graph.validate_ms", cell, tr.end(s))
					if err != nil {
						return err
					}
				}
				c.advance(st, rep.header.Get("X-Topomap-Digest"))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := daemonCounters(l, ss.d, before, requests); err != nil {
		return nil, err
	}
	l.diff("topomapd.http_ms", "topomapd.rtt_ms", "inprocess_ms")
	l.diff("unexplained_ms", "topomapd.rtt_ms", "graph.delta_decode_ms", "remap.patch_ms", "graph.digest_ms", "graph.encode_ms")
	o.wrong = chk.wrong
	return l, nil
}
