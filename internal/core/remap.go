package core

import (
	"errors"
	"fmt"

	"topomap/internal/graph"
	"topomap/internal/remap"
)

// RemapResult is the outcome of an incremental remap: the post-delta
// reconstruction plus how it was produced.
type RemapResult struct {
	RunResult
	// Incremental reports whether the structural patch served the remap.
	// False means the dirty set exceeded the threshold and the session fell
	// back to a full protocol run on the mutated graph — Stats and
	// Transactions are then real engine counters; an incremental result
	// ran no protocol and carries zero Stats.
	Incremental bool
	// Dirty is the number of preorder labels the patch replayed (0 for a
	// label-stable delta); for a fallback it is the whole node count.
	Dirty int
	// State is Topology's remap state, to chain further Remap calls
	// without a re-derivation. Treat it as immutable.
	State *remap.State
}

// Prime runs the full protocol on (g, root) and derives the remap state of
// the reconstruction: the entry point of a remap chain.
func (s *Session) Prime(g *graph.Graph, root int) (*RemapResult, error) {
	rr, err := s.run(nil, g, root)
	if err != nil {
		return nil, err
	}
	st, err := remap.Derive(rr.Topology)
	if err != nil {
		return nil, fmt.Errorf("core: remap state of fresh reconstruction: %w", err)
	}
	return &RemapResult{RunResult: *rr, State: st}, nil
}

// Remap patches the prior reconstruction prevTopo (with its remap state st;
// nil derives it on the spot) under the delta d, whose node ids live in
// reconstruction label space (node 0 = root). A delta whose dirty set stays
// within opt.MaxDirtyFrac is patched structurally in (sub-)linear time and
// never touches the engine; a dirtier one falls back to a full protocol run
// on the mutated graph, reusing the session's warm engine. Either way the
// result is bit-equal to a from-scratch map of the mutated graph — the
// equivalence the remap layer's tests pin across families, seeds, and both
// ways of driving the engine (Run and RunOne). prevTopo is never mutated.
func (s *Session) Remap(prevTopo *graph.Graph, st *remap.State, d *graph.Delta, opt remap.Options) (*RemapResult, error) {
	if st == nil {
		var err error
		if st, err = remap.Derive(prevTopo); err != nil {
			return nil, fmt.Errorf("core: remap: %w", err)
		}
	}
	res, err := remap.Patch(prevTopo, st, d, opt)
	if err == nil {
		return &RemapResult{
			RunResult:   RunResult{Topology: res.Graph},
			Incremental: true,
			Dirty:       res.Dirty,
			State:       res.State,
		}, nil
	}
	if !errors.Is(err, remap.ErrTooDirty) {
		return nil, err
	}
	g1, err := d.ApplyClone(prevTopo)
	if err != nil {
		return nil, err
	}
	rr, err := s.run(nil, g1, 0)
	if err != nil {
		return nil, err
	}
	nst, err := remap.Derive(rr.Topology)
	if err != nil {
		return nil, fmt.Errorf("core: remap state of full remap: %w", err)
	}
	return &RemapResult{RunResult: *rr, Dirty: g1.N(), State: nst}, nil
}
