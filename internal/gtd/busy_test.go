package gtd

import (
	"testing"

	"topomap/internal/sim"
	"topomap/internal/wire"
)

// fakeInfo builds a minimal NodeInfo for a standalone processor: two wired
// ports per side, optionally the root.
func fakeInfo(root bool) sim.NodeInfo {
	return sim.NodeInfo{
		Index: 0,
		Root:  root,
		Delta: 2,
		InW:   0b11,
		OutW:  0b11,
	}
}

// TestQuiescentStepIsNoop pins the third clause of the Busy contract the
// sparse frontier scheduler relies on: a processor that reports !Busy() and
// is stepped with all-blank inputs must stay !Busy() and emit only blanks —
// otherwise skipping that step (which the scheduler does) would be
// observable. It drives a non-root processor through many blank pulses.
func TestQuiescentStepIsNoop(t *testing.T) {
	cfg := DefaultConfig()
	p := New(&cfg, fakeInfo(false))
	if p.Busy() {
		t.Fatal("a freshly reset non-root processor must be quiescent")
	}
	for tick := 0; tick < 64; tick++ {
		io := sim.NewPorts(make([]wire.Message, 2))
		p.Step(io)
		for port := 1; port <= 2; port++ {
			if m := io.OutMessage(port); !m.IsBlank() {
				t.Fatalf("tick %d: quiescent processor emitted non-blank on out-port %d: %v", tick, port, m)
			}
		}
		if p.Busy() {
			t.Fatalf("tick %d: blank step made a quiescent processor busy", tick)
		}
	}
}

// TestKickedRootIsBusy: the seeded half of the frontier invariant — the
// initiating root must report Busy before its first step, or the run could
// never start under sparse scheduling.
func TestKickedRootIsBusy(t *testing.T) {
	cfg := DefaultConfig()
	p := New(&cfg, fakeInfo(true))
	if !p.Busy() {
		t.Fatal("a kicked root must be busy before its first step")
	}
	cfg2 := DefaultConfig()
	cfg2.PassiveRoot = true
	q := New(&cfg2, fakeInfo(true))
	if q.Busy() {
		t.Fatal("a passive root must not be busy")
	}
}

// TestArmedStandaloneIsBusy: external arming (StartRCA/StartBCA) must be
// visible through Busy immediately, so the engine's pre-run frontier seed
// (or a mid-run Wake) schedules the initiator.
func TestArmedStandaloneIsBusy(t *testing.T) {
	cfg := DefaultConfig()
	p := New(&cfg, fakeInfo(false))
	if err := p.StartBCA(1, wire.PayloadPing); err != nil {
		t.Fatal(err)
	}
	if !p.Busy() {
		t.Fatal("an armed BCA initiator must report busy before its kick step")
	}

	q := New(&cfg, fakeInfo(false))
	if err := q.StartRCA(wire.LoopToken{Type: wire.LoopForward, Out: 1, In: 1}); err != nil {
		t.Fatal(err)
	}
	if !q.Busy() {
		t.Fatal("an armed RCA initiator must report busy before its kick step")
	}
}

// TestTerminatedRootIsQuiescent: after termination the root must drop out
// of the frontier (it reports !Busy), so a finished network can quiesce.
func TestTerminatedRootIsQuiescent(t *testing.T) {
	cfg := DefaultConfig()
	p := New(&cfg, fakeInfo(true))
	p.terminated = true
	p.rootKick = false
	if p.Busy() {
		t.Fatal("a terminated root must be quiescent")
	}
}
