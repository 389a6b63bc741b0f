package graph

import (
	"strings"
	"testing"
)

func TestDeltaApplyEdgeOps(t *testing.T) {
	g := Ring(8) // δ=2, port 1 wired around the ring, port 2 free both sides
	d := new(Delta).Insert(2, 2, 6, 2).Delete(0, 1, 1, 1).Insert(0, 1, 1, 1)
	got, err := d.Apply(g)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got != g {
		t.Fatalf("edge-only delta must mutate in place")
	}
	if e, ok := g.OutEndpoint(2, 2); !ok || e != (Endpoint{6, 2}) {
		t.Fatalf("chord not wired: %v %v", e, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("mutated ring invalid: %v", err)
	}
}

func TestDeltaDeleteMustNameExactEdge(t *testing.T) {
	g := Ring(8)
	d := new(Delta).Delete(0, 1, 2, 1) // 0:1 actually targets 1:1
	if _, err := d.Apply(g); err == nil || !strings.Contains(err.Error(), "delta says") {
		t.Fatalf("mismatched delete must fail, got %v", err)
	}
	// The failed delete must have rewired what it removed.
	if e, ok := g.OutEndpoint(0, 1); !ok || e != (Endpoint{1, 1}) {
		t.Fatalf("edge not restored after failed delete: %v %v", e, ok)
	}
}

func TestDeltaDegreeGuard(t *testing.T) {
	g := Ring(8)
	d := new(Delta).Delete(3, 1, 4, 1)
	if _, err := d.Apply(g); err == nil || !strings.Contains(err.Error(), "no wired out-port") {
		t.Fatalf("delta zeroing a degree must fail, got %v", err)
	}
}

func TestDeltaNodeOps(t *testing.T) {
	g := Ring(6)
	// Splice a new node 6 into the ring between 2 and 3.
	d := new(Delta).AddNode().
		Delete(2, 1, 3, 1).
		Insert(2, 1, 6, 1).
		Insert(6, 1, 3, 1)
	got, err := d.Apply(g)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got.N() != 7 {
		t.Fatalf("n=%d after add", got.N())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("spliced ring invalid: %v", err)
	}
	if !got.IsomorphicFrom(0, Ring(7), 0) {
		t.Fatalf("spliced ring-6 not isomorphic to ring-7")
	}

	// Now unsplice it again: delete its edges, shortcut, remove the node.
	u := new(Delta).
		Delete(2, 1, 6, 1).
		Delete(6, 1, 3, 1).
		Insert(2, 1, 3, 1).
		RemoveNode(6)
	back, err := u.Apply(got)
	if err != nil {
		t.Fatalf("unsplice: %v", err)
	}
	if !back.Equal(Ring(6)) {
		t.Fatalf("unspliced graph != ring-6")
	}

	// A long run of additions (grown in one step) followed by its edges:
	// ring-2 becomes ring-4096, exactly as when every op is applied alone.
	const n = 4096
	big := new(Delta)
	for v := 2; v < n; v++ {
		big.AddNode()
	}
	big.Delete(1, 1, 0, 1)
	for v := 1; v < n; v++ {
		big.Insert(v, 1, (v+1)%n, 1)
	}
	batched, err := big.Apply(Ring(2))
	if err != nil {
		t.Fatalf("batched apply: %v", err)
	}
	// The reference applies the ops one at a time, growing the table by
	// one node per addition (Apply itself would reject a lone addition:
	// the new node has no wired ports until its edges arrive).
	single := Ring(2)
	for i, op := range big.Ops {
		e := op.Edge
		switch op.Kind {
		case DeltaAddNode:
			single = single.grow(1)
		case DeltaInsert:
			err = single.Connect(e.From, e.OutPort, e.To, e.InPort)
		case DeltaDelete:
			_, err = single.Disconnect(e.From, e.OutPort)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if !batched.Equal(single) || !batched.Equal(Ring(n)) {
		t.Fatal("batched add-node run differs from applying the ops one at a time")
	}
}

func TestDeltaRemoveNodeCompaction(t *testing.T) {
	g := Ring(6)
	// Remove node 2; ids 3,4,5 shift down to 2,3,4.
	d := new(Delta).
		Delete(1, 1, 2, 1).
		Delete(2, 1, 3, 1).
		Insert(1, 1, 3, 1).
		RemoveNode(2)
	got, err := d.Apply(g)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !got.Equal(Ring(5)) {
		t.Fatalf("compacted graph != ring-5:\n%s", got.MarshalString())
	}
}

func TestDeltaRemoveNodeGuards(t *testing.T) {
	g := Ring(6)
	if _, err := new(Delta).RemoveNode(2).Apply(g.Clone()); err == nil {
		t.Fatalf("removing a wired node must fail")
	}
	if _, err := new(Delta).RemoveNode(9).Apply(g.Clone()); err == nil {
		t.Fatalf("removing an out-of-range node must fail")
	}
}

func TestDeltaTextRoundTrip(t *testing.T) {
	d := new(Delta).Insert(3, 2, 17, 2).Delete(5, 1, 6, 1).AddNode().RemoveNode(12)
	text := d.MarshalText()
	want := "patch +3:2>17:2 -5:1>6:1 n+ n-12"
	if text != want {
		t.Fatalf("text %q, want %q", text, want)
	}
	back, err := UnmarshalDeltaString(text)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.MarshalText() != text {
		t.Fatalf("round trip %q != %q", back.MarshalText(), text)
	}
	if _, err := UnmarshalDeltaString("patch"); err != nil {
		t.Fatalf("identity delta must parse: %v", err)
	}
	for _, bad := range []string{"", "pitch +1:1>2:1", "patch +1:1", "patch n-x", "patch *3", "patch +1:0>2:1", "patch +-1:1>2:1"} {
		if _, err := UnmarshalDeltaString(bad); err == nil {
			t.Errorf("%q must not parse", bad)
		}
	}
}

func TestDeltaBinaryRoundTrip(t *testing.T) {
	d := new(Delta).Insert(3, 2, 17, 2).Delete(5, 1, 6, 1).AddNode().RemoveNode(12)
	base := Ring(32).CanonicalDigest(0)
	buf, err := MarshalDeltaBinary(base, d)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if len(buf) != d.DeltaBinarySize() {
		t.Fatalf("frame is %d bytes, want %d", len(buf), d.DeltaBinarySize())
	}
	if !IsBinaryDelta(buf) {
		t.Fatalf("frame does not sniff as a delta")
	}
	gotBase, back, err := UnmarshalDeltaBinary(buf)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if gotBase != base {
		t.Fatalf("base digest mangled")
	}
	if back.MarshalText() != d.MarshalText() {
		t.Fatalf("round trip %q != %q", back.MarshalText(), d.MarshalText())
	}

	// Truncations and bit flips must error, never panic.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := UnmarshalDeltaBinary(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	for _, mut := range []struct {
		at  int
		val byte
	}{
		{0, 'x'},                 // magic
		{4, 9},                   // version
		{5, 1},                   // flags
		{DeltaHeaderSize, 0},     // op kind → unknown
		{DeltaHeaderSize + 1, 0}, // insert out-port → zero
		{DeltaHeaderSize + 3, 7}, // padding
		{len(buf) - 12, 99},      // remove-node kind → unknown
		{len(buf) - 4, 0xff},     // remove-node `to` field must stay zero
	} {
		bad := append([]byte(nil), buf...)
		bad[mut.at] = mut.val
		if _, _, err := UnmarshalDeltaBinary(bad); err == nil {
			t.Errorf("mutation at %d decoded", mut.at)
		}
	}
}

func TestDeltaRebase(t *testing.T) {
	d := new(Delta).Insert(0, 2, 2, 2).AddNode().RemoveNode(1)
	perm := []int{3, 1, 0, 2}
	r, err := d.Rebase(perm)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	if got, want := r.MarshalText(), "patch +3:2>0:2 n+ n-1"; got != want {
		t.Fatalf("rebased %q, want %q", got, want)
	}
	// Ids at/past len(perm) — introduced by the delta's node ops — pass through.
	d2 := new(Delta).AddNode().Insert(4, 1, 0, 2)
	r2, err := d2.Rebase(perm)
	if err != nil {
		t.Fatalf("rebase: %v", err)
	}
	if got, want := r2.MarshalText(), "patch n+ +4:1>3:2"; got != want {
		t.Fatalf("rebased %q, want %q", got, want)
	}
}

func TestIsomorphismRecoversPermutation(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		root int
		seed int64
	}{
		{"ring8", Ring(8), 0, 1},
		{"torus9", Torus(3, 3), 4, 2},
		{"er24", ErdosRenyi(24, 4, 0.15, 7), 3, 3},
		{"ba24", BarabasiAlbert(24, 2, 4, 9), 0, 4},
	} {
		perm := RandomPermutation(tc.g.N(), tc.seed)
		h := tc.g.Relabel(perm)
		got, ok := Isomorphism(tc.g, tc.root, h, perm[tc.root])
		if !ok {
			t.Fatalf("%s: isomorphism not found", tc.name)
		}
		for v, w := range got {
			if w != perm[v] {
				t.Fatalf("%s: perm[%d]=%d, want %d", tc.name, v, w, perm[v])
			}
		}
	}
	// Non-isomorphic pairs and wrong anchors must fail.
	if _, ok := Isomorphism(Ring(8), 0, BiRing(8), 0); ok {
		t.Fatalf("ring vs biring claimed isomorphic")
	}
	// A chord breaks the ring's rotational symmetry, so only the true image
	// of the anchor can match (unlike a plain ring or torus, whose
	// translation automorphisms make every anchor equivalent).
	chord := Ring(8)
	chord.MustConnect(2, 2, 6, 2)
	perm := RandomPermutation(8, 5)
	h := chord.Relabel(perm)
	if _, ok := Isomorphism(chord, 0, h, perm[1]); ok {
		t.Fatalf("isomorphism claimed under a wrong anchor")
	}
	if _, ok := Isomorphism(chord, 0, h, perm[0]); !ok {
		t.Fatalf("isomorphism missed under the true anchor")
	}
}

func TestEqualFastPathMatchesWalk(t *testing.T) {
	g := ErdosRenyi(40, 4, 0.2, 11)
	h := g.Clone()
	if !g.Equal(h) {
		t.Fatalf("clone not equal")
	}
	// Flip one endpoint deep in the table and require inequality.
	e, _ := h.OutEndpoint(17, 1)
	if _, err := h.Disconnect(17, 1); err != nil {
		t.Fatalf("disconnect: %v", err)
	}
	if g.Equal(h) {
		t.Fatalf("graphs equal after disconnect")
	}
	h.MustConnect(17, 1, e.Node, e.Port)
	if !g.Equal(h) {
		t.Fatalf("graphs unequal after rewire")
	}
}

func TestDisconnect(t *testing.T) {
	g := Ring(8)
	e, err := g.Disconnect(0, 1)
	if err != nil {
		t.Fatalf("disconnect: %v", err)
	}
	if e != (Endpoint{1, 1}) {
		t.Fatalf("removed %v", e)
	}
	if _, ok := g.OutEndpoint(0, 1); ok {
		t.Fatalf("out side still wired")
	}
	if _, ok := g.InEndpoint(1, 1); ok {
		t.Fatalf("in side still wired")
	}
	if err := g.Validate(); err == nil {
		t.Fatalf("validate must fail after disconnect")
	}
	if _, err := g.Disconnect(0, 1); err == nil {
		t.Fatalf("double disconnect must fail")
	}
	if _, err := g.Disconnect(0, 9); err == nil {
		t.Fatalf("out-of-range port must fail")
	}
	if _, err := g.Disconnect(-1, 1); err == nil {
		t.Fatalf("out-of-range node must fail")
	}
}

// BenchmarkEqual pins the packed fast path against the per-port walk on the
// same graph pair.
func BenchmarkEqual(b *testing.B) {
	g := Ring(100_000)
	h := g.Clone()
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !g.Equal(h) {
				b.Fatal("unequal")
			}
		}
	})
	b.Run("walk", func(b *testing.B) {
		// Strip the flat backing to force the per-port path.
		gw, hw := g.Clone(), h.Clone()
		gw.flat, hw.flat = nil, nil
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !gw.Equal(hw) {
				b.Fatal("unequal")
			}
		}
	})
}

func FuzzUnmarshalDelta(f *testing.F) {
	d := new(Delta).Insert(3, 2, 17, 2).Delete(5, 1, 6, 1).AddNode().RemoveNode(12)
	seed, err := MarshalDeltaBinary(Ring(8).CanonicalDigest(0), d)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:DeltaHeaderSize])
	f.Add([]byte("tmd1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		base, d, err := UnmarshalDeltaBinary(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to the identical frame.
		back, err := MarshalDeltaBinary(base, d)
		if err != nil {
			t.Fatalf("re-encode of decoded delta failed: %v", err)
		}
		if string(back) != string(data) {
			t.Fatalf("decode/encode not a fixpoint")
		}
	})
}
