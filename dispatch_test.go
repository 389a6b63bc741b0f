package topomap

import (
	"testing"

	"topomap/internal/core"
	"topomap/internal/graph"
)

// TestDefaultOptionsSmallMapsStaySequential: with Options{} (a pool of
// GOMAXPROCS workers), complete maps of every generator family at the
// benchmark's map-small sizes never fan a tick out — their frontiers stay
// far below the measured crossover, so no tick pays the pool's dispatch.
func TestDefaultOptionsSmallMapsStaySequential(t *testing.T) {
	for i, f := range graph.AllFamilies() {
		g, err := graph.Build(f, 40, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if f == graph.FamilyKautz {
			g = graph.Kautz(2, 4)
		}
		var o Options
		cfg := o.config()
		res, err := core.Run(g, o.coreOptions(&cfg))
		if err != nil {
			t.Fatalf("%s-%d: %v", f, g.N(), err)
		}
		if st := res.Stats; st.ParTicks != 0 || st.SeqTicks != int64(st.Ticks) {
			t.Errorf("%s-%d: %d of %d ticks fanned out", f, g.N(), st.ParTicks, st.Ticks)
		}
	}
}
