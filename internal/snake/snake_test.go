package snake

import (
	"testing"
	"testing/quick"

	"topomap/internal/wire"
)

func TestPipelineFIFOAndDelay(t *testing.T) {
	p := NewPipeline(Speed1Delay)
	// Tick 0: push A.
	p.Age()
	p.Push(Char{Part: wire.Body, Out: 1})
	if _, ok := p.Pop(); ok {
		t.Fatal("speed-1 character popped on arrival tick")
	}
	// Tick 1: push B; A not ready.
	p.Age()
	p.Push(Char{Part: wire.Body, Out: 2})
	if _, ok := p.Pop(); ok {
		t.Fatal("speed-1 character popped after one tick")
	}
	// Tick 2: A ready.
	p.Age()
	c, ok := p.Pop()
	if !ok || c.Out != 1 {
		t.Fatalf("expected A at tick 2, got %v ok=%t", c, ok)
	}
	if _, ok := p.Pop(); ok {
		t.Fatal("B must not pop in the same tick as A")
	}
	// Tick 3: B ready.
	p.Age()
	c, ok = p.Pop()
	if !ok || c.Out != 2 {
		t.Fatalf("expected B at tick 3, got %v ok=%t", c, ok)
	}
}

func TestPipelineSpeed3PopsSameTick(t *testing.T) {
	p := NewPipeline(Speed3Delay)
	p.Age()
	p.Push(Char{Part: wire.Tail})
	if _, ok := p.Pop(); !ok {
		t.Fatal("speed-3 character must pop the tick it arrives")
	}
}

func TestPipelineOverflowPanics(t *testing.T) {
	p := NewPipeline(Speed1Delay)
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	for i := 0; i < pipeCap+1; i++ {
		p.Push(Char{Part: wire.Body})
	}
}

func TestPipelineClear(t *testing.T) {
	p := NewPipeline(Speed1Delay)
	p.Push(Char{Part: wire.Body})
	p.Push(Char{Part: wire.Body})
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
	p.Clear()
	if p.Len() != 0 {
		t.Fatal("clear left characters")
	}
	for i := 0; i < 3; i++ {
		p.Age()
	}
	if _, ok := p.Pop(); ok {
		t.Fatal("pop after clear")
	}
}

func TestPipelineFIFOProperty(t *testing.T) {
	// Property: under any arrival pattern of ≤1 char/tick, characters
	// leave in arrival order with exactly `delay` extra ticks each.
	f := func(pattern []bool) bool {
		p := NewPipeline(Speed1Delay)
		type stamped struct{ id, tick int }
		var pushed, popped []stamped
		id := 0
		for tick := 0; tick < len(pattern)+16; tick++ {
			p.Age()
			if tick < len(pattern) && pattern[tick] {
				p.Push(Char{Out: uint8(id%31 + 1)})
				pushed = append(pushed, stamped{id, tick})
				id++
			}
			if c, ok := p.Pop(); ok {
				popped = append(popped, stamped{int(c.Out) - 1, tick})
				_ = c
			}
		}
		if len(pushed) != len(popped) {
			return false
		}
		for i := range pushed {
			if popped[i].id%31 != pushed[i].id%31 {
				return false
			}
			if popped[i].tick < pushed[i].tick+Speed1Delay {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGrowRelayVisitAndParent(t *testing.T) {
	r := NewGrowRelay(Speed1Delay)
	r.BeginTick()
	r.Receive(Char{Part: wire.Head, Out: 1, In: 2}.Word(), 2)
	if !r.Visited || r.ParentIn != 2 {
		t.Fatalf("first character must mark visited with its in-port: %+v", r)
	}
	// Characters through another port are ignored.
	r.Receive(Char{Part: wire.Head, Out: 9, In: 3}.Word(), 3)
	emitted := drainGrow(t, &r, 8)
	if len(emitted) != 1 || CharOf(emitted[0].Word).Out != 1 {
		t.Fatalf("exactly the accepted character must be forwarded, got %v", emitted)
	}
}

func TestGrowRelayLowestPortTieBreak(t *testing.T) {
	// Simultaneous arrivals are offered in ascending port order; the
	// first offer wins (footnote 1 of the paper).
	r := NewGrowRelay(Speed1Delay)
	r.BeginTick()
	r.Receive(Char{Part: wire.Head, Out: 1, In: 1}.Word(), 1)
	r.Receive(Char{Part: wire.Head, Out: 2, In: 2}.Word(), 2)
	if r.ParentIn != 1 {
		t.Fatalf("lowest in-port must win, got parent %d", r.ParentIn)
	}
}

func TestGrowRelayDeaf(t *testing.T) {
	r := NewGrowRelay(Speed1Delay)
	r.Deaf = true
	r.BeginTick()
	r.Receive(Char{Part: wire.Head, Out: 1, In: 1}.Word(), 1)
	if r.Visited || r.HasResidue() {
		t.Fatal("deaf relay must ignore all characters")
	}
}

// drainGrow ticks the relay n times collecting emissions.
func drainGrow(t *testing.T, r *GrowRelay, n int) []GrowOut {
	t.Helper()
	var out []GrowOut
	for i := 0; i < n; i++ {
		r.BeginTick()
		if g := r.Emit(); g.Has {
			out = append(out, g)
		}
	}
	return out
}

func TestGrowRelayTailInsertion(t *testing.T) {
	// Stream [H, T] through a relay: the emission must be
	// [H, per-port body, T] — the §2.3.2 insertion rule.
	r := NewGrowRelay(Speed1Delay)
	r.BeginTick()
	r.Receive(Char{Part: wire.Head, Out: 1, In: 1}.Word(), 1)
	r.BeginTick()
	r.Receive(Char{Part: wire.Tail}.Word(), 1)
	if g := r.Emit(); g.Has {
		t.Fatal("premature emission")
	}
	var seq []GrowOut
	for i := 0; i < 8; i++ {
		r.BeginTick()
		if g := r.Emit(); g.Has {
			seq = append(seq, g)
		}
	}
	if len(seq) != 3 {
		t.Fatalf("want [head, insert, tail], got %d emissions: %v", len(seq), seq)
	}
	if seq[0].PerPort || CharOf(seq[0].Word).Part != wire.Head {
		t.Fatalf("first emission must be the head: %+v", seq[0])
	}
	if !seq[1].PerPort || CharOf(seq[1].Word).Part != wire.Body {
		t.Fatalf("second emission must be the per-port inserted body: %+v", seq[1])
	}
	if CharOf(seq[2].Word).Part != wire.Tail || seq[2].PerPort {
		t.Fatalf("third emission must be the tail: %+v", seq[2])
	}
	if r.Busy() {
		t.Fatal("relay must be drained after the tail")
	}
}

func TestGrowRelayKill(t *testing.T) {
	r := NewGrowRelay(Speed1Delay)
	r.BeginTick()
	r.Receive(Char{Part: wire.Head, Out: 1, In: 1}.Word(), 1)
	r.Receive(Char{Part: wire.Body, Out: 1, In: 1}.Word(), 1)
	if !r.HasResidue() {
		t.Fatal("relay should hold residue")
	}
	r.Kill()
	if r.HasResidue() || r.Visited || r.Busy() {
		t.Fatal("kill must erase marks and characters")
	}
	// A later character re-marks the relay ("receives ... for the first
	// time" applies again, as the straggler re-marking in the paper).
	r.BeginTick()
	r.Receive(Char{Part: wire.Body, Out: 2, In: 2}.Word(), 2)
	if !r.Visited || r.ParentIn != 2 {
		t.Fatal("post-kill character must re-mark")
	}
}

func TestGrowRelayFlushPipeKeepsClosure(t *testing.T) {
	r := NewGrowRelay(Speed1Delay)
	r.BeginTick()
	r.Receive(Char{Part: wire.Head, Out: 1, In: 1}.Word(), 1)
	r.FlushPipe()
	if !r.Visited {
		t.Fatal("flush must keep the visited closure")
	}
	if r.PipeLen() != 0 {
		t.Fatal("flush must drop buffered characters")
	}
}

func TestInitiatorBabySnake(t *testing.T) {
	var ini Initiator
	if ini.Busy() {
		t.Fatal("zero initiator must be idle")
	}
	ini.Start()
	g1 := ini.Emit()
	if !g1.Has || !g1.PerPort || CharOf(g1.Word).Part != wire.Head {
		t.Fatalf("first tick must emit per-port heads: %+v", g1)
	}
	if got := CharOf(g1.On(3)); got != (Char{Part: wire.Head, Out: 3, In: wire.Star}) {
		t.Fatalf("out-port 3 must carry H(3, ∗), got %v", got)
	}
	g2 := ini.Emit()
	if !g2.Has || CharOf(g2.Word).Part != wire.Tail {
		t.Fatalf("second tick must emit the tail: %+v", g2)
	}
	if ini.Busy() || ini.Emit().Has {
		t.Fatal("initiator must be done after two ticks")
	}
}

func TestDieRelayHeadEatsAndMarks(t *testing.T) {
	r := NewDieRelay(Speed1Delay)
	r.BeginTick()
	ev, eaten := r.Receive(Char{Part: wire.Head, Out: 3, In: 1}, 2)
	if !eaten || ev.Pred != 2 || ev.Succ != 3 {
		t.Fatalf("head must set pred=arrival port, succ=head.Out: %+v", ev)
	}
	// The head itself is discarded; nothing emits.
	for i := 0; i < 6; i++ {
		r.BeginTick()
		if _, _, ok := r.Emit(); ok {
			t.Fatal("the eaten head must not be forwarded")
		}
	}
}

func TestDieRelayPromoteAndTail(t *testing.T) {
	r := NewDieRelay(Speed1Delay)
	r.BeginTick()
	r.Receive(Char{Part: wire.Head, Out: 3, In: 1}, 2)
	r.BeginTick()
	r.Receive(Char{Part: wire.Body, Out: 1, In: 2}, 2)
	r.BeginTick()
	r.Receive(Char{Part: wire.Body, Out: 2, In: 2}, 2)
	r.BeginTick()
	r.Receive(Char{Part: wire.Tail}, 2)
	var seq []Char
	var ports []uint8
	for i := 0; i < 10; i++ {
		r.BeginTick()
		if c, port, ok := r.Emit(); ok {
			seq = append(seq, c)
			ports = append(ports, port)
		}
	}
	if len(seq) != 3 {
		t.Fatalf("want promoted head + body + tail, got %v", seq)
	}
	if seq[0].Part != wire.Head || seq[0].Out != 1 {
		t.Fatalf("first forwarded char must be promoted to head: %+v", seq[0])
	}
	if seq[1].Part != wire.Body || seq[2].Part != wire.Tail {
		t.Fatalf("subsequent chars pass as body then tail: %v", seq)
	}
	for _, p := range ports {
		if p != 3 {
			t.Fatalf("all emissions must use the successor out-port 3, got %v", ports)
		}
	}
	if r.Active() {
		t.Fatal("relay must reset to idle after the tail")
	}
}

func TestDieRelayFlagPreserved(t *testing.T) {
	r := NewDieRelay(Speed1Delay)
	r.BeginTick()
	r.Receive(Char{Part: wire.Head, Out: 1, In: 1}, 1)
	r.BeginTick()
	r.Receive(Char{Part: wire.Body, Out: 2, In: 1, Flag: true, Payload: wire.PayloadPing}, 1)
	r.BeginTick()
	r.Receive(Char{Part: wire.Tail}, 1)
	var seq []Char
	for i := 0; i < 8; i++ {
		r.BeginTick()
		if c, _, ok := r.Emit(); ok {
			seq = append(seq, c)
		}
	}
	if len(seq) != 2 || !seq[0].Flag || seq[0].Payload != wire.PayloadPing {
		t.Fatalf("flag and payload must survive promotion: %v", seq)
	}
	if seq[0].Part != wire.Head {
		t.Fatal("flagged char promoted to head enters the target as its head")
	}
}

func TestDieRelayPanicsOnBodyAtIdle(t *testing.T) {
	r := NewDieRelay(Speed1Delay)
	r.BeginTick()
	defer func() {
		if recover() == nil {
			t.Fatal("body character at an idle relay must panic")
		}
	}()
	r.Receive(Char{Part: wire.Body, Out: 1, In: 1}, 1)
}

func TestDieRelayPanicsOffPath(t *testing.T) {
	r := NewDieRelay(Speed1Delay)
	r.BeginTick()
	r.Receive(Char{Part: wire.Head, Out: 1, In: 1}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("character off the predecessor port must panic")
		}
	}()
	r.Receive(Char{Part: wire.Body, Out: 1, In: 1}, 2)
}

func TestDieConverterPromotesFirst(t *testing.T) {
	c := NewDieConverter(Speed1Delay, 4, false, wire.PayloadNone)
	c.BeginTick()
	c.Receive(Char{Part: wire.Body, Out: 1, In: 2})
	c.BeginTick()
	c.Receive(Char{Part: wire.Body, Out: 2, In: 1})
	c.BeginTick()
	if c.Receive(Char{Part: wire.Tail}) != true {
		t.Fatal("tail receipt must be reported (early KILL release point)")
	}
	var seq []Char
	for i := 0; i < 10; i++ {
		c.BeginTick()
		if ch, port, ok := c.Emit(); ok {
			if port != 4 {
				t.Fatalf("converter must emit through its successor port, got %d", port)
			}
			seq = append(seq, ch)
		}
	}
	if len(seq) != 3 || seq[0].Part != wire.Head || seq[1].Part != wire.Body || seq[2].Part != wire.Tail {
		t.Fatalf("conversion sequence wrong: %v", seq)
	}
	if !c.Done() {
		t.Fatal("converter must be done after the tail")
	}
}

func TestDieConverterTailOnly(t *testing.T) {
	// A marked path of length 1 sends only the tail through ("if the
	// next character happens to be a tail, it gets sent as is").
	c := NewDieConverter(Speed1Delay, 2, false, wire.PayloadNone)
	c.BeginTick()
	c.Receive(Char{Part: wire.Tail})
	var seq []Char
	for i := 0; i < 6; i++ {
		c.BeginTick()
		if ch, _, ok := c.Emit(); ok {
			seq = append(seq, ch)
		}
	}
	if len(seq) != 1 || seq[0].Part != wire.Tail {
		t.Fatalf("tail must pass unpromoted: %v", seq)
	}
}

func TestDieConverterFlagMode(t *testing.T) {
	// The character immediately preceding the tail — and only it — must
	// be flagged and carry the payload, regardless of stream length.
	for bodies := 1; bodies <= 5; bodies++ {
		c := NewDieConverter(Speed1Delay, 1, true, wire.PayloadPong)
		for i := 0; i < bodies; i++ {
			c.BeginTick()
			c.Receive(Char{Part: wire.Body, Out: uint8(i + 1), In: 1})
		}
		c.BeginTick()
		c.Receive(Char{Part: wire.Tail})
		var seq []Char
		for i := 0; i < bodies+10; i++ {
			c.BeginTick()
			if ch, _, ok := c.Emit(); ok {
				seq = append(seq, ch)
			}
		}
		if len(seq) != bodies+1 {
			t.Fatalf("bodies=%d: got %d emissions", bodies, len(seq))
		}
		for i, ch := range seq {
			wantFlag := i == bodies-1
			if ch.Flag != wantFlag {
				t.Fatalf("bodies=%d: emission %d flag=%t, want %t", bodies, i, ch.Flag, wantFlag)
			}
			if wantFlag && ch.Payload != wire.PayloadPong {
				t.Fatalf("bodies=%d: flagged char lost its payload", bodies)
			}
		}
	}
}

func TestDieConverterFlagModeTailFirstPanics(t *testing.T) {
	c := NewDieConverter(Speed1Delay, 1, true, wire.PayloadPing)
	c.BeginTick()
	defer func() {
		if recover() == nil {
			t.Fatal("a BCA stream with no character to flag must panic")
		}
	}()
	c.Receive(Char{Part: wire.Tail})
}

func TestDieConverterReceiveAfterDonePanics(t *testing.T) {
	c := NewDieConverter(Speed3Delay, 1, false, wire.PayloadNone)
	c.BeginTick()
	c.Receive(Char{Part: wire.Tail})
	c.Emit()
	defer func() {
		if recover() == nil {
			t.Fatal("receive after completion must panic")
		}
	}()
	c.Receive(Char{Part: wire.Body, Out: 1, In: 1})
}

func TestCharWireRoundTrip(t *testing.T) {
	f := func(part, out, in uint8, flag bool, pay uint8) bool {
		c := Char{
			Part: wire.Part(part % 3), Out: out % (wire.MaxDelta + 1), In: in % (wire.MaxDelta + 1),
			Flag: flag, Payload: wire.Payload(pay % wire.NumPayloads),
		}
		d := wire.DieChar{Kind: wire.KindBD, Part: c.Part, Out: c.Out, In: c.In, Flag: c.Flag, Payload: c.Payload}
		// Growing chars carry no flag/payload.
		cc := c
		cc.Flag, cc.Payload = false, wire.PayloadNone
		g := wire.GrowChar{Kind: wire.KindOG, Part: c.Part, Out: c.Out, In: c.In}
		return CharOf(c.Word()) == c && c.Word() == wire.PackDieChar(d) &&
			cc.Word() == wire.PackGrowChar(g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDieConverterArmReuse: a converter re-armed in place must behave
// exactly like a freshly constructed one, and Disarm must return it to the
// idle zero state.
func TestDieConverterArmReuse(t *testing.T) {
	var c DieConverter
	if c.Armed() {
		t.Fatal("zero converter must be unarmed")
	}
	for round := 0; round < 3; round++ {
		c.Arm(Speed1Delay, 2, false, wire.PayloadNone)
		if !c.Armed() || c.Done() || c.Busy() {
			t.Fatalf("round %d: armed converter in wrong state", round)
		}
		c.BeginTick()
		c.Receive(Char{Part: wire.Body, Out: 1, In: 1})
		c.BeginTick()
		if tail := c.Receive(Char{Part: wire.Tail}); !tail {
			t.Fatal("tail receipt must be reported")
		}
		var got []Char
		for i := 0; i < 8 && !c.Done(); i++ {
			c.BeginTick()
			if ch, port, ok := c.Emit(); ok {
				if port != 2 {
					t.Fatalf("round %d: emitted through port %d", round, port)
				}
				got = append(got, ch)
			}
		}
		if len(got) != 2 || got[0].Part != wire.Head || got[1].Part != wire.Tail {
			t.Fatalf("round %d: conversion emitted %v", round, got)
		}
		if !c.Done() {
			t.Fatalf("round %d: conversion incomplete", round)
		}
	}
	c.Disarm()
	if c.Armed() || c.Busy() {
		t.Fatal("disarmed converter must be idle")
	}
}

// TestDieConverterArmFlagReuse re-arms in flag mode and checks the payload
// flag lands on the character preceding the tail, round after round.
func TestDieConverterArmFlagReuse(t *testing.T) {
	var c DieConverter
	for round := 0; round < 2; round++ {
		c.Arm(Speed3Delay, 1, true, wire.PayloadPing)
		c.BeginTick()
		c.Receive(Char{Part: wire.Body, Out: 1, In: 2})
		c.BeginTick()
		c.Receive(Char{Part: wire.Body, Out: 2, In: 1})
		c.BeginTick()
		c.Receive(Char{Part: wire.Tail})
		var got []Char
		for i := 0; i < 8 && !c.Done(); i++ {
			if ch, _, ok := c.Emit(); ok {
				got = append(got, ch)
			}
			c.BeginTick()
		}
		if len(got) != 3 {
			t.Fatalf("round %d: emitted %d characters", round, len(got))
		}
		if got[0].Flag || got[2].Flag || !got[1].Flag || got[1].Payload != wire.PayloadPing {
			t.Fatalf("round %d: flag misplace: %v", round, got)
		}
	}
}
