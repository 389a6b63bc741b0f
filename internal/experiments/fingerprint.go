package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

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
// shared outcome); drive runs the engine (normally (*sim.Engine).Run).
// StepCalls stays out of the fingerprint ("s=-"): dense and sparse
// substrates differ on it by design. The harness is not a timer: hashing
// the formatted transcript costs as much as the engine on small maps.
type fingerprintRun struct {
	stats       sim.Stats
	fingerprint string
}

func runFingerprinted(g *graph.Graph, opts sim.Options, window int,
	drive func(*sim.Engine) (sim.Stats, error)) (*fingerprintRun, error) {
	opts.MaxTicks = tickBudget(window)
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
	stats, err := drive(eng)
	if !windowOutcome(err, window) {
		return nil, err
	}
	return &fingerprintRun{
		stats: stats,
		fingerprint: fmt.Sprintf("%x|t=%d|m=%d|s=-|a=%d|err=%v",
			h.Sum64(), stats.Ticks, stats.NonBlankMessages, stats.MaxActive, err),
	}, nil
}

// tickBudget is the MaxTicks of a fingerprinted run: the window when one
// is set, else a budget no complete map reaches.
func tickBudget(window int) int {
	if window > 0 {
		return window
	}
	return 64_000_000
}

// windowOutcome reports whether err is an expected end of a run: none, or
// the tick budget of a windowed run.
func windowOutcome(err error, window int) bool {
	return err == nil || window > 0 && errors.Is(err, sim.ErrMaxTicks)
}
