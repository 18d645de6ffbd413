package native

import (
	"context"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
)

func requireOracle(t *testing.T, g *graph.Graph, labels []int32) {
	t.Helper()
	if err := check.Components(g, labels); err != nil {
		t.Fatal(err)
	}
}

func TestSmallGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.New(0)},
		{"isolated", graph.New(5)},
		{"single-edge", graph.FromEdges(2, [][2]int{{0, 1}})},
		{"self-loops", graph.FromEdges(3, [][2]int{{0, 0}, {1, 1}, {0, 1}})},
		{"parallel-edges", graph.FromEdges(3, [][2]int{{0, 1}, {0, 1}, {1, 2}})},
		{"path", graph.Path(17)},
		{"cycle", graph.Cycle(12)},
		{"star", graph.Star(9)},
		{"two-comps", graph.DisjointUnion(graph.Path(6), graph.Clique(5))},
		{"with-isolated", graph.WithIsolated(graph.Grid2D(4, 5), 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Components(tc.g, 0)
			requireOracle(t, tc.g, res.Labels)
			if len(res.Labels) != tc.g.N {
				t.Fatalf("got %d labels for %d vertices", len(res.Labels), tc.g.N)
			}
		})
	}
}

// requireMinLabels fails unless labels equal the minimum-id oracle
// elementwise: checkpoints and LabelsInto rely on canonical labels, so
// the same partition is not enough.
func requireMinLabels(t *testing.T, g *graph.Graph, labels []int32) {
	t.Helper()
	want := baseline.MinComponents(g)
	for v := range want {
		if labels[v] != want[v] {
			t.Fatalf("vertex %d: label %d, want component minimum %d", v, labels[v], want[v])
		}
	}
}

// TestMinLabelRepresentatives: linking by index minimum leaves every
// component rooted at its minimum vertex id, giving canonical labels.
func TestMinLabelRepresentatives(t *testing.T) {
	g := graph.DisjointUnion(graph.Cycle(10), graph.Star(7), graph.Path(4))
	requireMinLabels(t, g, Components(g, 0).Labels)
}

// TestWorkersSweep: every worker count induces the same partition as
// the sequential union-find oracle.
func TestWorkersSweep(t *testing.T) {
	gs := []*graph.Graph{
		graph.Gnm(5000, 20000, 1),
		graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 64, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 2}),
		graph.Permuted(graph.Grid2D(40, 50), 3),
	}
	for _, g := range gs {
		oracle := baseline.Components(g)
		for _, w := range []int{1, 2, 3, 7, 16} {
			res := Components(g, w)
			if res.Workers != w {
				t.Fatalf("workers=%d: resolved to %d", w, res.Workers)
			}
			if err := check.SamePartition(res.Labels, oracle); err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
		}
	}
}

// TestRaceStress hammers the CAS paths with heavy contention: a
// high-diameter workload (long shortcut chains) and a dense one (many
// conflicting links), repeatedly, with more workers than cores. Run
// under -race this is the engine's memory-model check.
func TestRaceStress(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(30000),
		graph.Gnm(20000, 120000, 11),
		graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 256, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 12}),
	}
	iters := 5
	if testing.Short() {
		iters = 2
	}
	for _, g := range gs {
		oracle := baseline.Components(g)
		for i := 0; i < iters; i++ {
			res := Components(g, 32)
			if err := check.SamePartition(res.Labels, oracle); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
		}
	}
}

// TestOnePass pins the engine's contract: one union-find pass,
// reported as exactly 1 round whatever the diameter, leaving the
// minimum-id labeling — on a long path, a high-diameter chain of
// cliques, a star, and a graph with isolated vertices.
func TestOnePass(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path-100000", graph.Path(100000)},
		{"clique-beads", graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 256, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 5})},
		{"star", graph.Star(5000)},
		{"with-isolated", graph.WithIsolated(graph.Permuted(graph.Grid2D(30, 40), 6), 500)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 4} {
				res := Components(tc.g, w)
				if res.Rounds != 1 {
					t.Fatalf("workers=%d: %d rounds, want 1", w, res.Rounds)
				}
				requireMinLabels(t, tc.g, res.Labels)
			}
		})
	}
}

func BenchmarkNativeGnm(b *testing.B) {
	g := graph.Gnm(100000, 400000, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Components(g, 0)
	}
}

func BenchmarkNativeHighDiameter(b *testing.B) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 1024, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Components(g, 0)
	}
}

// TestEngineReuse: the long-lived Engine form must match the one-shot
// Components across repeated runs on differently-sized graphs, with
// the caller-owned label buffer regrown as needed.
func TestEngineReuse(t *testing.T) {
	e := NewEngine(3)
	defer e.Close()
	graphs := []*graph.Graph{
		graph.Gnm(2000, 6000, 1),
		graph.Path(301),
		graph.Gnm(5000, 1000, 2),
		graph.Clique(64),
	}
	var labels []int32
	for i, g := range graphs {
		if cap(labels) >= g.N {
			labels = labels[:g.N]
		} else {
			labels = make([]int32, g.N)
		}
		rounds, err := e.Run(context.Background(), g, labels)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if rounds != 1 {
			t.Fatalf("graph %d: %d rounds, want 1", i, rounds)
		}
		requireOracle(t, g, labels)
		requireMinLabels(t, g, labels)
	}
}

// TestEngineRunCancellation: a cancelled context aborts Run at its
// first chunk with ctx.Err(), and the engine stays usable.
func TestEngineRunCancellation(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	g := graph.Gnm(3000, 9000, 4)
	labels := make([]int32, g.N)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, g, labels); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if _, err := e.Run(context.Background(), g, labels); err != nil {
		t.Fatal(err)
	}
	requireOracle(t, g, labels)
}

// TestEngineRunBadBuffer: a mis-sized label buffer is a programming
// error and must panic loudly, not corrupt memory.
func TestEngineRunBadBuffer(t *testing.T) {
	e := NewEngine(1)
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a short label buffer")
		}
	}()
	_, _ = e.Run(context.Background(), graph.Path(10), make([]int32, 3))
}
