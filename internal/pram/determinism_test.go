package pram_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/ccbase"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/spanning"
	"repro/internal/vanilla"
)

// outcome is one simulated run reduced to what must reproduce: the
// labels, the round or phase count, the machine's cost counters, and
// the algorithm's whole result (traces included) for the comparison.
type outcome struct {
	labels []int32
	rounds int
	stats  pram.Stats
	full   any
}

// TestModelCostsIndependentOfGOMAXPROCS runs every simulated algorithm
// on a graph whose largest step has at least 2048 processors, twice
// each at GOMAXPROCS 1 and 4, on pram.New(0) machines, and asserts that
// every run gives the same labels, pram.Stats, round or phase count and
// trace. The simulator runs processors in index order on one goroutine,
// so the host's CPU count must not pick the winners of concurrent
// writes. Each run is also checked for correctness.
func TestModelCostsIndependentOfGOMAXPROCS(t *testing.T) {
	gCore := graph.Gnm(20000, 100000, 9)
	gBase := graph.Gnm(20000, 80000, 6)
	gForest := graph.Gnm(10000, 40000, 6)
	gSV := graph.Gnm(5000, 20000, 13)
	gLT := graph.Gnm(5000, 20000, 7)
	// Matrix squaring does Θ(n²·words) work per round once rows fill
	// up, so its graph is many small components with n = 2048.
	parts := make([]*graph.Graph, 64)
	for i := range parts {
		parts[i] = graph.Gnm(32, 64, int64(i+1))
	}
	gMS := graph.DisjointUnion(parts...)

	fromParallel := func(r baseline.ParallelResult) outcome {
		return outcome{r.Labels, r.Rounds, r.Stats, r}
	}
	ltVariant := func(name string) baseline.LTVariant {
		v, err := baseline.LTVariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cases := []struct {
		name string
		g    *graph.Graph
		run  func(m *pram.Machine, g *graph.Graph) outcome
		// forest, when set, returns the forest edges to verify.
		forest func(full any) []int
	}{
		{name: "core", g: gCore, run: func(m *pram.Machine, g *graph.Graph) outcome {
			r := core.Run(m, g, core.DefaultParams(3))
			return outcome{r.Labels, r.Rounds, r.Stats, r}
		}},
		{name: "ccbase", g: gBase, run: func(m *pram.Machine, g *graph.Graph) outcome {
			r := ccbase.Run(m, g, ccbase.DefaultParams(2))
			return outcome{r.Labels, r.Phases, r.Stats, r}
		}},
		{name: "spanning", g: gForest, run: func(m *pram.Machine, g *graph.Graph) outcome {
			r := spanning.Run(m, g, spanning.DefaultParams(4))
			return outcome{r.Labels, r.Phases, r.Stats, r}
		}, forest: func(full any) []int { return full.(spanning.Result).ForestEdges }},
		{name: "vanilla", g: gBase, run: func(m *pram.Machine, g *graph.Graph) outcome {
			r := vanilla.Run(m, g, 2, 0)
			return outcome{r.Labels, r.Phases, r.Stats, r}
		}},
		{name: "sv", g: gSV, run: func(m *pram.Machine, g *graph.Graph) outcome {
			return fromParallel(baseline.ShiloachVishkin(m, g))
		}},
		{name: "as", g: gSV, run: func(m *pram.Machine, g *graph.Graph) outcome {
			return fromParallel(baseline.AwerbuchShiloach(m, g))
		}},
		{name: "lt-PA", g: gLT, run: func(m *pram.Machine, g *graph.Graph) outcome {
			return fromParallel(baseline.LiuTarjan(m, g, ltVariant("PA")))
		}},
		{name: "lt-EA", g: gLT, run: func(m *pram.Machine, g *graph.Graph) outcome {
			return fromParallel(baseline.LiuTarjan(m, g, ltVariant("EA")))
		}},
		{name: "lt-minlink", g: gLT, run: func(m *pram.Machine, g *graph.Graph) outcome {
			return fromParallel(baseline.LiuTarjanMinLink(m, g))
		}},
		{name: "leader-contraction", g: gSV, run: func(m *pram.Machine, g *graph.Graph) outcome {
			return fromParallel(baseline.LeaderContraction(m, g))
		}},
		{name: "label-propagation", g: gSV, run: func(m *pram.Machine, g *graph.Graph) outcome {
			return fromParallel(baseline.LabelPropagation(m, g))
		}},
		{name: "matrix-squaring", g: gMS, run: func(m *pram.Machine, g *graph.Graph) outcome {
			return fromParallel(baseline.MatrixSquaring(m, g))
		}},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var first outcome
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for rep := 0; rep < 2; rep++ {
					got := c.run(pram.New(0), c.g)
					if err := check.Components(c.g, got.labels); err != nil {
						t.Fatalf("GOMAXPROCS=%d run %d: %v", procs, rep, err)
					}
					if c.forest != nil {
						if err := check.Forest(c.g, c.forest(got.full)); err != nil {
							t.Fatalf("GOMAXPROCS=%d run %d: forest: %v", procs, rep, err)
						}
					}
					if first.full == nil {
						if got.stats.MaxProcs < 2048 {
							t.Fatalf("largest step has %d processors, want ≥ 2048", got.stats.MaxProcs)
						}
						first = got
						continue
					}
					if !reflect.DeepEqual(got.full, first.full) {
						t.Fatalf("GOMAXPROCS=%d run %d differs from the first run at GOMAXPROCS=1: "+
							"rounds %d vs %d, stats %+v vs %+v, labels equal %v",
							procs, rep, got.rounds, first.rounds, got.stats, first.stats,
							reflect.DeepEqual(got.labels, first.labels))
					}
				}
			}
		})
	}
}
