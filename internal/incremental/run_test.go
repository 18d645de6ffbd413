package incremental

import (
	"context"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
)

// run solves g one-shot on a fresh engine of the given worker count
// and returns the labels, the reported rounds and the resolved worker
// count.
func run(t testing.TB, g *graph.Graph, workers int) (labels []int32, rounds, resolved int) {
	t.Helper()
	e := New(0, Options{Workers: workers})
	defer e.Close()
	labels = make([]int32, g.N)
	rounds, err := e.Run(context.Background(), g, labels)
	if err != nil {
		t.Fatal(err)
	}
	return labels, rounds, e.Workers()
}

func requireOracle(t *testing.T, g *graph.Graph, labels []int32) {
	t.Helper()
	if err := check.Components(g, labels); err != nil {
		t.Fatal(err)
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

// TestEngineMatchesNativeLabels: one-batch ingestion must produce the
// exact labels of the one-shot Run (the former native engine) — both
// canonicalize to component minima — not merely the same partition.
func TestEngineMatchesNativeLabels(t *testing.T) {
	for name, g := range zoo() {
		t.Run(name, func(t *testing.T) {
			e := New(g.N, Options{})
			defer e.Close()
			snap := e.AddGraph(g)
			labels, _, _ := run(t, g, 0)
			if len(snap.Labels) != len(labels) {
				t.Fatalf("label lengths differ: %d vs %d", len(snap.Labels), len(labels))
			}
			for v := range snap.Labels {
				if snap.Labels[v] != labels[v] {
					t.Fatalf("label[%d] = %d, Run %d", v, snap.Labels[v], labels[v])
				}
			}
			if err := check.SamePartition(snap.Labels, baseline.Components(g)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunSmallGraphs(t *testing.T) {
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
			labels, rounds, _ := run(t, tc.g, 0)
			requireOracle(t, tc.g, labels)
			if want := min(tc.g.NumEdges(), 1); rounds != want {
				t.Fatalf("%d rounds, want %d", rounds, want)
			}
		})
	}
}

// TestRunMinLabels: linking by index minimum leaves every component
// rooted at its minimum vertex id, giving canonical labels.
func TestRunMinLabels(t *testing.T) {
	g := graph.DisjointUnion(graph.Cycle(10), graph.Star(7), graph.Path(4))
	labels, _, _ := run(t, g, 0)
	requireMinLabels(t, g, labels)
}

// TestRunWorkersSweep: every worker count induces the same partition
// as the sequential union-find oracle.
func TestRunWorkersSweep(t *testing.T) {
	gs := []*graph.Graph{
		graph.Gnm(5000, 20000, 1),
		graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 64, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 2}),
		graph.Permuted(graph.Grid2D(40, 50), 3),
	}
	for _, g := range gs {
		oracle := baseline.Components(g)
		for _, w := range []int{1, 2, 3, 7, 16} {
			labels, _, resolved := run(t, g, w)
			if resolved != w {
				t.Fatalf("workers=%d: resolved to %d", w, resolved)
			}
			if err := check.SamePartition(labels, oracle); err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
		}
	}
}

// TestRunRaceStress hammers the CAS paths with heavy contention: a
// high-diameter workload (long shortcut chains) and a dense one (many
// conflicting links), repeatedly, with more workers than cores. Run
// under -race this is the one-shot path's memory-model check.
func TestRunRaceStress(t *testing.T) {
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
			labels, _, _ := run(t, g, 32)
			if err := check.SamePartition(labels, oracle); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
		}
	}
}

// TestRunOnePass pins Run's contract: one union-find pass, reported as
// exactly 1 round whatever the diameter, leaving the minimum-id
// labeling — on a long path, a high-diameter chain of cliques, a star,
// and a graph with isolated vertices.
func TestRunOnePass(t *testing.T) {
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
				labels, rounds, _ := run(t, tc.g, w)
				if rounds != 1 {
					t.Fatalf("workers=%d: %d rounds, want 1", w, rounds)
				}
				requireMinLabels(t, tc.g, labels)
			}
		})
	}
}

// TestRunReuse: one long-lived engine must solve repeated runs on
// differently-sized graphs exactly, with the caller-owned label buffer
// regrown as needed.
func TestRunReuse(t *testing.T) {
	e := New(0, Options{Workers: 3})
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

// TestRunCancellation: a cancelled context aborts Run at its first
// chunk with ctx.Err(), and the engine stays usable.
func TestRunCancellation(t *testing.T) {
	e := New(0, Options{Workers: 2})
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

// TestRunBadBuffer: a mis-sized label buffer is a programming error
// and must panic loudly, not corrupt memory.
func TestRunBadBuffer(t *testing.T) {
	e := New(0, Options{Workers: 1})
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a short label buffer")
		}
	}()
	_, _ = e.Run(context.Background(), graph.Path(10), make([]int32, 3))
}

// TestRunLeavesLiveState: a one-shot Run between streaming batches
// neither moves the published snapshot nor links anything into the
// live forest, so the next batch continues from what queries saw.
func TestRunLeavesLiveState(t *testing.T) {
	e := New(6, Options{Workers: 2})
	defer e.Close()
	before, err := e.AddSpan(graph.FromPairs([][2]int{{0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Path(6)
	labels := make([]int32, g.N)
	if _, err := e.Run(context.Background(), g, labels); err != nil {
		t.Fatal(err)
	}
	requireMinLabels(t, g, labels)
	if e.Snapshot() != before {
		t.Fatal("Run replaced the published snapshot")
	}
	after, err := e.AddSpan(graph.FromPairs([][2]int{{4, 5}}))
	if err != nil {
		t.Fatal(err)
	}
	// {0,1}, {2}, {3}, {4,5}: the path Run solved left no links behind.
	if after.Components != 4 || after.Labels[2] != 2 || after.Labels[5] != 4 {
		t.Fatalf("live labeling after Run and one batch: %v (%d components)", after.Labels, after.Components)
	}
}

func BenchmarkRunGnm(b *testing.B) {
	g := graph.Gnm(100000, 400000, 42)
	e := New(0, Options{})
	defer e.Close()
	labels := make([]int32, g.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(context.Background(), g, labels)
	}
}

func BenchmarkRunHighDiameter(b *testing.B) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 1024, Size: 24, IntraDeg: 20, Bridges: 2, Seed: 1})
	e := New(0, Options{})
	defer e.Close()
	labels := make([]int32, g.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(context.Background(), g, labels)
	}
}
