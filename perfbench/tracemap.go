package main

import (
	"errors"
	"math/rand"
	"runtime"
	"time"

	"topomap"
	"topomap/internal/core"
	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/mapper"
	"topomap/internal/sim"
)

// engineCounters records sim.Engine's counters for one run in cell i.
func engineCounters(l *layers, i int, st sim.Stats) {
	l.count("sim.ticks", "count", i, float64(st.Ticks))
	l.count("sim.steps", "count", i, float64(st.StepCalls))
	l.count("sim.messages", "count", i, float64(st.NonBlankMessages))
	l.count("sim.max_active", "count", i, float64(st.MaxActive))
	l.count("sim.par_ticks", "count", i, float64(st.ParTicks))
	l.count("sim.seq_ticks", "count", i, float64(st.SeqTicks))
	l.count("sim.bursts", "count", i, float64(st.Bursts))
}

// traceMapSmall splits map-small's operation into its layers. Per cell and
// round: the operation itself (topomap.Session.Map), then on a second fresh
// copy Validate, an engine-only run recording the root transcript, and the
// mapper's replay of it, then a core.Session run on a third copy, which
// bounds what core adds around the three.
func traceMapSmall(cfg config, tr *tracer, o *outcome) (*layers, error) {
	corpus, err := smallCorpus()
	if err != nil {
		return nil, err
	}
	l := newLayers("map-small", inputNames(corpus))
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 1)))
	sess := topomap.NewSession(topomap.Options{})
	defer sess.Close()
	cs := core.NewSession(core.Options{})
	defer cs.Close()
	arena := gtd.NewArena(gtd.DefaultConfig())
	var rec transcript
	var eng *sim.Engine
	defer func() {
		if eng != nil {
			eng.Close()
		}
	}()
	m := mapper.New(1)
	var chk checker
	err = loop(cfg.budget, func(int) error {
		for i, in := range corpus {
			tr.newOp()
			o.attempted += 3
			h, _ := relabelled(in.g, 0, rng, true)
			runtime.GC()
			s := tr.begin("map-small.map", -1)
			res, err := sess.Map(h)
			l.time("op_ms", i, tr.end(s))
			if err != nil {
				o.failed++
			} else if !res.Topology.Equal(in.expect) {
				chk.failf("map-small %s: reconstruction differs from the oracle", in.name)
			}

			h, _ = relabelled(in.g, 0, rng, true)
			runtime.GC()
			parent := tr.begin("map-small.layers", -1)
			s = tr.begin("graph.validate", parent)
			err = h.Validate()
			l.time("graph.validate_ms", i, tr.end(s))
			if err != nil {
				return err
			}
			s = tr.begin("sim.run", parent)
			rec.reset()
			if eng == nil {
				eng = sim.New(h, sim.Options{Transcript: rec.add, RetainPool: true}, arena.Factory())
			} else {
				eng.ResetRooted(h, 0)
			}
			st, err := eng.Run()
			d := tr.end(s)
			l.time("sim.run_ms", i, d)
			if err != nil {
				o.failed++
				tr.end(parent)
				continue
			}
			l.sample("sim.ns_per_step", "ns", i, float64(d.Nanoseconds())/float64(st.StepCalls))
			engineCounters(l, i, st)
			l.count("mapper.entries", "count", i, float64(len(rec.ticks)))
			s = tr.begin("mapper.decode", parent)
			m.Reset(h.Delta())
			rec.replay(m)
			topo, err := m.Finish()
			l.time("mapper.decode_ms", i, tr.end(s))
			tr.end(parent)
			if err != nil {
				o.failed++
			} else if !topo.Equal(in.expect) {
				chk.failf("map-small %s: mapper replay differs from the oracle", in.name)
			}

			h, _ = relabelled(in.g, 0, rng, true)
			runtime.GC()
			s = tr.begin("core.run", -1)
			_, err = cs.Run(h)
			l.time("core.run_ms", i, tr.end(s))
			if err != nil {
				o.failed++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.diff("core.other_ms", "core.run_ms", "graph.validate_ms", "sim.run_ms", "mapper.decode_ms")
	l.diff("unexplained_ms", "op_ms", "graph.validate_ms", "sim.run_ms", "mapper.decode_ms", "core.other_ms")
	o.wrong = chk.wrong
	return l, nil
}

// traceMapLarge splits map-large's window into its layers. Per cell and
// round: the operation itself (windowOp), then on the same tmg1 bytes a
// timed decode, Validate of the fresh graph, an engine-only window on a
// freshly sized engine recording the root transcript, and the mapper's
// replay of it. Counters are read from the engine, which the session API
// does not return on a budget stop.
func traceMapLarge(cfg config, tr *tracer, o *outcome) (*layers, error) {
	corpus, err := largeCorpus(cfg.seed)
	if err != nil {
		return nil, err
	}
	paths, err := windowFiles(cfg.outDir, corpus)
	defer removeAll(paths)
	if err != nil {
		return nil, err
	}
	l := newLayers("map-large", inputNames(corpus))
	for i, in := range corpus {
		g, err := graph.UnmarshalBinary(in.bin)
		if err != nil {
			return nil, err
		}
		cs := core.NewSession(core.Options{MaxTicks: largeWindow})
		if _, err := cs.Run(g); !errors.Is(err, sim.ErrMaxTicks) {
			cs.Close()
			return nil, err
		}
		l.count("sim.bytes_per_node", "B", i, cs.Mem().BytesPerNode)
		cs.Close()
	}
	var chk windowChecker
	var rec transcript
	err = loop(cfg.budget, func(int) error {
		for i, in := range corpus {
			tr.newOp()
			o.attempted += 2
			s := tr.begin("map-large.window", -1)
			rep, err := runWindow(paths[i])
			tr.end(s)
			if err != nil {
				return err
			}
			if rep.Err != "" {
				o.failed++
				continue
			}
			l.time("op_ms", i, time.Duration(rep.NS))
			chk.check(i, in.name, rep.Stats, rep.MaxTicks)

			freshStart()
			parent := tr.begin("map-large.layers", -1)
			s = tr.begin("graph.decode_bin", parent)
			g, err := graph.UnmarshalBinary(in.bin)
			l.time("graph.decode_bin_ms", i, tr.end(s))
			if err != nil {
				return err
			}
			s = tr.begin("graph.validate", parent)
			err = g.Validate()
			l.time("graph.validate_ms", i, tr.end(s))
			if err != nil {
				return err
			}
			s = tr.begin("sim.run", parent)
			rec.reset()
			eng := sim.New(g, sim.Options{MaxTicks: largeWindow, Transcript: rec.add}, gtd.NewFactory(gtd.DefaultConfig()))
			st, err := eng.Run()
			eng.Close()
			d := tr.end(s)
			l.time("sim.run_ms", i, d)
			if !errors.Is(err, sim.ErrMaxTicks) {
				o.failed++
				tr.end(parent)
				continue
			}
			chk.check(i, in.name, st, true)
			l.sample("sim.ns_per_step", "ns", i, float64(d.Nanoseconds())/float64(st.StepCalls))
			engineCounters(l, i, st)
			l.count("mapper.entries", "count", i, float64(len(rec.ticks)))
			s = tr.begin("mapper.decode", parent)
			rec.replay(mapper.New(g.Delta()))
			l.time("mapper.decode_ms", i, tr.end(s))
			tr.end(parent)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.diff("unexplained_ms", "op_ms", "graph.decode_bin_ms", "graph.validate_ms", "sim.run_ms", "mapper.decode_ms")
	o.wrong = chk.wrong
	return l, nil
}
