package sim_test

import (
	"fmt"
	"testing"

	"topomap/internal/graph"
	"topomap/internal/sim"
	"topomap/internal/snake"
	"topomap/internal/wire"
)

// portsCase is one channel written both ways: through the Ports setter
// with a packed word, and through the wire.Message setter with the struct.
type portsCase struct {
	name string
	port func(io *sim.Ports, p int)
	msg  func(m *wire.Message)
}

// portsCases covers every channel of the alphabet: the three growing kinds
// (head, body with a ∗ entry, tail), the three dying kinds with Flag and
// every Payload, the four loop types, the DFS token and KILL.
func portsCases() []portsCase {
	var cs []portsCase
	for k := 0; k < wire.NumGrowKinds; k++ {
		for _, c := range []wire.GrowChar{
			{Kind: wire.GrowKindAt(k), Part: wire.Head, Out: 3, In: wire.Star},
			{Kind: wire.GrowKindAt(k), Part: wire.Body, Out: wire.MaxDelta, In: 7},
			{Kind: wire.GrowKindAt(k), Part: wire.Tail},
		} {
			cs = append(cs, portsCase{c.String(),
				func(io *sim.Ports, p int) { io.SetGrow(p, k, wire.PackGrowChar(c)) },
				func(m *wire.Message) { m.SetGrow(c) }})
		}
	}
	for k := 0; k < wire.NumDieKinds; k++ {
		for pay := wire.Payload(0); pay < wire.NumPayloads; pay++ {
			c := wire.DieChar{Kind: wire.DieKindAt(k), Part: wire.Body, Out: 2, In: 5,
				Flag: wire.DieKindAt(k) == wire.KindBD, Payload: pay}
			cs = append(cs, portsCase{c.String(),
				func(io *sim.Ports, p int) { io.SetDie(p, k, wire.PackDieChar(c)) },
				func(m *wire.Message) { m.SetDie(c) }})
		}
		c := wire.DieChar{Kind: wire.DieKindAt(k), Part: wire.Tail}
		cs = append(cs, portsCase{c.String(),
			func(io *sim.Ports, p int) { io.SetDie(p, k, wire.PackDieChar(c)) },
			func(m *wire.Message) { m.SetDie(c) }})
	}
	for typ := wire.LoopForward; typ <= wire.LoopUnmark; typ++ {
		t := wire.LoopToken{Type: typ}
		if typ == wire.LoopForward {
			t.Out, t.In = 4, wire.MaxDelta
		}
		cs = append(cs, portsCase{t.String(),
			func(io *sim.Ports, p int) { io.SetLoop(p, wire.PackLoopToken(t)) },
			func(m *wire.Message) { m.SetLoop(t) }})
	}
	cs = append(cs,
		portsCase{"DFS",
			func(io *sim.Ports, p int) { io.SetDFS(p, 6) },
			func(m *wire.Message) { m.SetDFS(wire.DFSToken{Out: 6}) }},
		portsCase{"KILL",
			func(io *sim.Ports, p int) { io.SetKill(p) },
			func(m *wire.Message) { m.Kill = true }})
	return cs
}

// panicText runs f and returns what it panicked with ("" if nothing).
func panicText(f func()) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestPortsRoundTrip pins the port view against wire.Message bit for bit:
// every channel written through a setter reads back as the Message its
// struct setter builds, every Message loaded into the in side reads back
// as its packed words, the ∗ entry survives the planes for the receiver to
// rewrite (snake.Arrive), and every duplicate write panics with Message's
// own text.
func TestPortsRoundTrip(t *testing.T) {
	const delta = 3
	cases := portsCases()
	for _, c := range cases {
		var want wire.Message
		c.msg(&want)

		// Out side: the setter's words materialise as the Message.
		io := sim.NewPorts(make([]wire.Message, delta))
		c.port(io, 2)
		if got := io.OutMessage(2); got != want {
			t.Errorf("%s: out side reads %v, want %v", c.name, got, want)
		}
		for _, p := range []int{1, 3} {
			if m := io.OutMessage(p); !m.IsBlank() {
				t.Errorf("%s: out-port %d not blank: %v", c.name, p, m)
			}
		}

		// In side: a loaded Message reads back as its packed words.
		in := make([]wire.Message, delta)
		in[1] = want
		io = sim.NewPorts(in)
		if got := io.InMask(2); got != want.MaskWord() {
			t.Errorf("%s: InMask %#x, want %#x", c.name, got, want.MaskWord())
		}
		for k := 0; k < wire.NumGrowKinds; k++ {
			if want.HasGrowKind(k) && io.InGrow(2, k) != wire.PackGrowChar(want.Grow[k]) {
				t.Errorf("%s: InGrow(%d) %#x", c.name, k, io.InGrow(2, k))
			}
			if want.HasDieKind(k) && io.InDie(2, k) != wire.PackDieChar(want.Die[k]) {
				t.Errorf("%s: InDie(%d) %#x", c.name, k, io.InDie(2, k))
			}
		}
		if want.HasLoop() && io.InLoop(2) != wire.PackLoopToken(want.Loop) {
			t.Errorf("%s: InLoop %#x", c.name, io.InLoop(2))
		}
		if want.HasDFS() && io.InDFS(2) != want.DFS.Out {
			t.Errorf("%s: InDFS %d", c.name, io.InDFS(2))
		}
		if got := io.InMessage(2); got != want {
			t.Errorf("%s: InMessage %v, want %v", c.name, got, want)
		}
		if io.InMask(1) != 0 || io.InMask(3) != 0 {
			t.Errorf("%s: neighbouring in-ports not blank", c.name)
		}

		// Duplicate writes: the same panic text as wire.Message, except
		// KILL, a flag that may be set twice.
		dup := sim.NewPorts(make([]wire.Message, delta))
		got := panicText(func() { c.port(dup, 1); c.port(dup, 1) })
		var m wire.Message
		exp := panicText(func() { c.msg(&m); c.msg(&m) })
		if got != exp {
			t.Errorf("%s: duplicate write panics %q, wire.Message panics %q", c.name, got, exp)
		}
		if c.name != "KILL" && got == "" {
			t.Errorf("%s: duplicate write did not panic", c.name)
		}
	}

	// Channels compose on one port: all of them at once read back as the
	// Message carrying all of them.
	io := sim.NewPorts(make([]wire.Message, 1))
	var all wire.Message
	for _, c := range cases {
		var one wire.Message
		c.msg(&one)
		if one.MaskWord()&all.MaskWord() != 0 {
			continue // a second character for a channel already set
		}
		c.port(io, 1)
		c.msg(&all)
	}
	if got := io.OutMessage(1); got != all || got.MaskWord() != wire.GrowBits|wire.DieBits|wire.LoopBit|wire.DFSBit|wire.KillBit {
		t.Errorf("all channels: out side reads %v, want %v", got, all)
	}

	// The star rewrite: the planes carry a growing character's ∗ entry as
	// written, and the receiver's rewrite (snake.Arrive) fills in the
	// in-port of arrival on a head or body only.
	in := make([]wire.Message, 2)
	in[1].SetGrow(wire.GrowChar{Kind: wire.KindOG, Part: wire.Head, Out: 3, In: wire.Star})
	in[1].SetGrow(wire.GrowChar{Kind: wire.KindBG, Part: wire.Tail})
	in[1].SetGrow(wire.GrowChar{Kind: wire.KindIG, Part: wire.Body, Out: 1, In: 4})
	io = sim.NewPorts(in)
	if got := io.InMessage(2); got != in[1] {
		t.Fatalf("the planes rewrote a character: %v, want %v", got, in[1])
	}
	for _, tc := range []struct {
		k    int
		want wire.GrowChar
	}{
		{1, wire.GrowChar{Kind: wire.KindOG, Part: wire.Head, Out: 3, In: 2}},
		{2, wire.GrowChar{Kind: wire.KindBG, Part: wire.Tail}},
		{0, wire.GrowChar{Kind: wire.KindIG, Part: wire.Body, Out: 1, In: 4}},
	} {
		if got := snake.Arrive(io.InGrow(2, tc.k), 2); got != wire.PackGrowChar(tc.want) {
			t.Errorf("kind %v: arrived as %v, want %v", wire.GrowKindAt(tc.k), wire.UnpackGrowChar(tc.k, got), tc.want)
		}
	}
}

// TestMemChargesPackedOutPlanes pins Mem's shard term: every shard owns one
// δ-slot out plane, charged at the planes' 17 packed bytes per slot (2 mask
// + 6 grow + 6 die + 2 loop + 1 dfs). Before any run the per-shard
// frontier buffers are empty, so the four worker shards a Workers: 4 engine
// adds beside the sequential one cost exactly four out planes.
func TestMemChargesPackedOutPlanes(t *testing.T) {
	g := graph.Hypercube(4) // δ = 4
	mem := func(workers int) sim.MemInfo {
		e := sim.New(g, sim.Options{Workers: workers}, func(sim.NodeInfo) sim.Automaton { return &sinkNode{} })
		defer e.Close()
		return e.Mem()
	}
	one, four := mem(1), mem(4)
	if got, want := four.SchedBytes-one.SchedBytes, int64(4*17*g.Delta()); got != want {
		t.Fatalf("four shards charge %d bytes over the sequential shard, want %d (4 out planes of δ=%d slots)",
			got, want, g.Delta())
	}
	if four.WireBytes != one.WireBytes {
		t.Fatalf("wire planes moved with the worker count: %d vs %d", four.WireBytes, one.WireBytes)
	}
}
