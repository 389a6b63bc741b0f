package topomap

import "testing"

// TestSessionCloseIdempotent pins the Session.Close shim callers still
// make: Close is a no-op, safe to repeat, and a closed session keeps
// mapping.
func TestSessionCloseIdempotent(t *testing.T) {
	g := Torus(4, 4)
	s := NewSession(Options{})
	want, err := s.Map(g)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()            // double Close must be a no-op
	got, err := s.Map(g) // and the session must keep working after it
	if err != nil {
		t.Fatal(err)
	}
	if got.Ticks != want.Ticks || !got.Topology.Equal(want.Topology) {
		t.Fatal("session diverged after Close")
	}
}
