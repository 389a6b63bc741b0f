package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"topomap/internal/graph"
	"topomap/internal/gtd"
	"topomap/internal/sim"
)

// fingerprintRun is the harness of the scheduler-equivalence experiment
// (E14) and the anchored transcript tests: run the protocol under the given
// engine options,
// fingerprinting everything observable — an FNV-1a hash of the full root
// transcript stream plus the scheduler-invariant statistics and the error
// outcome — so two runs are byte-comparable by a single string. window > 0
// bounds the run by a tick budget (ErrMaxTicks is then the expected,
// shared outcome); drive runs the engine (normally (*sim.Engine).Run) and
// wall is measured around it only. StepCalls stays out of the fingerprint
// ("s=-"): dense and sparse substrates differ on it by design.
type fingerprintRun struct {
	stats       sim.Stats
	wall        time.Duration
	fingerprint string
}

func runFingerprinted(g *graph.Graph, opts sim.Options, window int,
	drive func(*sim.Engine) (sim.Stats, error)) (*fingerprintRun, error) {
	opts.MaxTicks = 64_000_000
	if window > 0 {
		opts.MaxTicks = window
	}
	h := fnv.New64a()
	opts.Transcript = func(e sim.TranscriptEntry) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(e.Tick))
		h.Write(buf[:])
		for _, m := range e.In {
			fmt.Fprintf(h, "%v|", m)
		}
		for _, m := range e.Out {
			fmt.Fprintf(h, "%v|", m)
		}
	}
	eng := sim.New(g, opts, gtd.NewFactory(gtd.DefaultConfig()))
	start := time.Now()
	stats, err := drive(eng)
	wall := time.Since(start)
	if err != nil && !(window > 0 && errors.Is(err, sim.ErrMaxTicks)) {
		return nil, err
	}
	return &fingerprintRun{
		stats: stats,
		wall:  wall,
		fingerprint: fmt.Sprintf("%x|t=%d|m=%d|s=-|a=%d|err=%v",
			h.Sum64(), stats.Ticks, stats.NonBlankMessages, stats.MaxActive, err),
	}, nil
}
