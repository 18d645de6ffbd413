package labels

import (
	"testing"

	"repro/graph"
	"repro/internal/pram"
)

// BenchmarkAlterHasNonLoop times the simulator's hottest loop: one
// ALTER and one "any non-loop arc left?" step over the 4·10⁵ arcs of a
// Gnm(5·10⁴, 2·10⁵) graph, the instance size of the simulate workload.
// The parents pair up vertices 2k and 2k+1 under 2k, a flat labeling,
// so every iteration alters and scans the same arcs and most of them
// stay non-loops.
func BenchmarkAlterHasNonLoop(b *testing.B) {
	g := graph.Gnm(50000, 200000, 1)
	arcs := NewArcStore(g.Span())
	d := NewSelfLabeled(g.N)
	for v := range d.Parent {
		d.Parent[v] = int32(v &^ 1)
	}
	m := pram.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arcs.Alter(m, d)
		if !arcs.HasNonLoop(m) {
			b.Fatal("every arc became a loop")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*arcs.Len()), "ns/proc")
}
