package baseline

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/pram"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("fresh unions must merge")
	}
	if uf.Union(0, 1) {
		t.Fatal("repeated union must report already merged")
	}
	if uf.Find(0) != uf.Find(1) || uf.Find(2) != uf.Find(3) {
		t.Fatal("find inconsistent")
	}
	if uf.Find(0) == uf.Find(2) {
		t.Fatal("separate sets merged")
	}
}

func TestUnionFindMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Gnm(200, 300, seed)
		return check.SamePartition(Components(g), g.ComponentsBFS()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpanningForestSeq(t *testing.T) {
	g := graph.Gnm(300, 900, 4)
	if err := check.Forest(g, SpanningForestSeq(g)); err != nil {
		t.Fatal(err)
	}
}

var workloads = map[string]func() *graph.Graph{
	"path":     func() *graph.Graph { return graph.Path(512) },
	"cycle":    func() *graph.Graph { return graph.Cycle(333) },
	"star":     func() *graph.Graph { return graph.Star(400) },
	"grid":     func() *graph.Graph { return graph.Grid2D(20, 20) },
	"gnm":      func() *graph.Graph { return graph.Gnm(1000, 4000, 7) },
	"multi":    func() *graph.Graph { return graph.DisjointUnion(graph.Path(50), graph.Clique(16), graph.Star(20)) },
	"permuted": func() *graph.Graph { return graph.Permuted(graph.Grid2D(15, 15), 3) },
	"isolated": func() *graph.Graph { return graph.WithIsolated(graph.Path(20), 10) },
}

func TestParallelBaselinesCorrect(t *testing.T) {
	algos := map[string]func(*pram.Machine, *graph.Graph) ParallelResult{
		"sv": ShiloachVishkin,
		"as": AwerbuchShiloach,
		"lt": LiuTarjanMinLink,
		"lp": LabelPropagation,
	}
	for gname, gen := range workloads {
		g := gen()
		for aname, algo := range algos {
			t.Run(fmt.Sprintf("%s/%s", aname, gname), func(t *testing.T) {
				res := algo(pram.New(1), g)
				if err := check.Components(g, res.Labels); err != nil {
					t.Fatalf("rounds=%d: %v", res.Rounds, err)
				}
			})
		}
	}
}

func TestMatrixSquaringCorrectSmall(t *testing.T) {
	for gname, gen := range workloads {
		g := gen()
		if g.N > 600 {
			continue
		}
		t.Run(gname, func(t *testing.T) {
			res := MatrixSquaring(pram.New(1), g)
			if err := check.Components(g, res.Labels); err != nil {
				t.Fatalf("rounds=%d: %v", res.Rounds, err)
			}
		})
	}
}

func TestSVRoundsLogarithmic(t *testing.T) {
	// O(log n) rounds on paths; the round count must grow slowly.
	r := map[int]int{}
	for _, n := range []int{64, 512, 4096} {
		res := ShiloachVishkin(pram.New(1), graph.Path(n))
		r[n] = res.Rounds
		if res.Rounds > 4*log2(n)+8 {
			t.Fatalf("n=%d: %d rounds", n, res.Rounds)
		}
	}
	if r[4096] < r[64] {
		t.Fatalf("rounds should grow with n: %v", r)
	}
}

func log2(n int) int {
	l := 0
	for x := 1; x < n; x <<= 1 {
		l++
	}
	return l
}

func TestLabelPropagationRoundsAreDiameter(t *testing.T) {
	// Exactly ecc(min-id vertex)+1 rounds on a path from vertex 0.
	for _, n := range []int{10, 100, 333} {
		res := LabelPropagation(pram.New(1), graph.Path(n))
		if res.Rounds < n-1 || res.Rounds > n+1 {
			t.Fatalf("n=%d: label propagation took %d rounds, want ≈%d", n, res.Rounds, n)
		}
	}
}

func TestMatrixSquaringRoundsLogDiameter(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		res := MatrixSquaring(pram.New(1), graph.Path(n))
		if res.Rounds > log2(n)+2 {
			t.Fatalf("n=%d: %d rounds, want ≈log2(d)=%d", n, res.Rounds, log2(n))
		}
	}
}

func TestBaselinesAgreeWithEachOther(t *testing.T) {
	g := graph.Gnm(500, 1200, 11)
	a := ShiloachVishkin(pram.New(1), g).Labels
	b := AwerbuchShiloach(pram.New(1), g).Labels
	c := LiuTarjanMinLink(pram.New(1), g).Labels
	d := LabelPropagation(pram.New(1), g).Labels
	for _, other := range [][]int32{b, c, d} {
		if err := check.SamePartition(a, other); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLabelsAreComponentMinima(t *testing.T) {
	// SV/AS/LT/LP all converge to the minimum vertex id per component.
	g := graph.DisjointUnion(graph.Clique(5), graph.Path(6))
	oracle := g.ComponentsBFS() // BFS labels are minima by construction
	for name, algo := range map[string]func(*pram.Machine, *graph.Graph) ParallelResult{
		"sv": ShiloachVishkin, "as": AwerbuchShiloach,
		"lt": LiuTarjanMinLink, "lp": LabelPropagation,
	} {
		res := algo(pram.New(1), g)
		for v, l := range res.Labels {
			if l != oracle[v] {
				t.Fatalf("%s: label[%d] = %d, want min %d", name, v, l, oracle[v])
			}
		}
	}
}
