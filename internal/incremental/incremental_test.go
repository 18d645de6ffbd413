package incremental

import (
	"math/rand"
	"sync"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
)

// zoo is a compact generator spread: every structural family the
// engine could plausibly mishandle (deep paths, stars, dense cliques,
// multigraphs, isolated vertices, multiple components).
func zoo() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":        graph.Path(300),
		"star":        graph.Star(200),
		"grid2d":      graph.Grid2D(17, 23),
		"clique":      graph.Clique(40),
		"gnm":         graph.Gnm(2500, 8000, 7),
		"gnm-sparse":  graph.Gnm(2000, 700, 8),
		"rmat":        graph.RMAT(1024, 4000, 9),
		"beads":       graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 24, Size: 10, IntraDeg: 6, Bridges: 2, Seed: 5}),
		"disjoint":    graph.DisjointUnion(graph.Path(80), graph.Clique(15), graph.Gnm(400, 1200, 11)),
		"isolated":    graph.WithIsolated(graph.Grid2D(8, 8), 13),
		"caterpillar": graph.Caterpillar(40, 3),
	}
}

// TestBatchSplitInvariance: the final partition must not depend on how
// the edge stream is cut into batches, on the batch sizes, or on the
// (shuffled) edge order within the stream.
func TestBatchSplitInvariance(t *testing.T) {
	for name, g := range zoo() {
		t.Run(name, func(t *testing.T) {
			want := baseline.MinComponents(g)
			rng := rand.New(rand.NewSource(42))
			edges := g.Edges()
			for trial := 0; trial < 4; trial++ {
				rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				span := graph.FromPairs(edges)
				e := New(g.N, Options{Workers: 1 + rng.Intn(8)})
				// Random cut points: between 1 and 7 batches of random sizes.
				for lo := 0; lo < len(edges); {
					hi := lo + 1 + rng.Intn(len(edges)-lo)
					if _, err := e.AddSpan(span.Slice(lo, hi)); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
				snap := e.Snapshot()
				for v := range want {
					if snap.Labels[v] != want[v] {
						t.Fatalf("trial %d: label[%d] = %d, want %d", trial, v, snap.Labels[v], want[v])
					}
				}
				if got := countDistinct(want); snap.Components != got {
					t.Fatalf("trial %d: %d components, want %d", trial, snap.Components, got)
				}
				e.Close()
			}
		})
	}
}

func countDistinct(labels []int32) int {
	seen := map[int32]struct{}{}
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// TestSnapshotMonotonicity: the component count never increases as
// batches arrive, and queries between batches reflect exactly the
// edges ingested so far (checked against a union-find replay).
func TestSnapshotMonotonicity(t *testing.T) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 16, Size: 8, IntraDeg: 5, Bridges: 1, Seed: 3})
	e := New(g.N, Options{})
	defer e.Close()
	if e.ComponentCount() != g.N {
		t.Fatalf("empty engine has %d components, want %d", e.ComponentCount(), g.N)
	}
	uf := baseline.NewUnionFind(g.N)
	prev := g.N
	for _, batch := range g.SpanBatches(9) {
		snap, err := e.AddSpan(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, ed := range batch.Pairs() {
			uf.Union(int32(ed[0]), int32(ed[1]))
		}
		if snap.Components > prev {
			t.Fatalf("component count rose from %d to %d", prev, snap.Components)
		}
		prev = snap.Components
		oracle := make([]int32, g.N)
		for v := range oracle {
			oracle[v] = uf.Find(int32(v))
		}
		if err := check.SamePartition(snap.Labels, oracle); err != nil {
			t.Fatalf("mid-stream snapshot wrong: %v", err)
		}
	}
}

// TestConcurrentQueriesDuringIngest: SameComponent/ComponentCount/
// Snapshot racing an in-flight AddSpan must be safe (the race
// detector is the assertion) and must only ever observe consistent
// batch-boundary states: a snapshot's component count always matches
// its labels.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	g := graph.Gnm(4000, 20000, 21)
	e := New(g.N, Options{})
	defer e.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := e.Snapshot()
				if got := countDistinct(s.Labels); got != s.Components {
					t.Errorf("inconsistent snapshot: %d distinct labels, Components=%d", got, s.Components)
					return
				}
				_ = e.SameComponent(r, g.N-1-r)
			}
		}(r)
	}
	for _, batch := range g.SpanBatches(50) {
		if _, err := e.AddSpan(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := check.SamePartition(e.Snapshot().Labels, baseline.Components(g)); err != nil {
		t.Fatal(err)
	}
}

// TestDegenerateInputs: empty graphs, self-loops, parallel edges,
// empty batches.
func TestDegenerateInputs(t *testing.T) {
	e := New(0, Options{})
	if s, err := e.AddSpan(graph.EdgeSpan{}); err != nil || s.Components != 0 || s.Batches != 1 {
		t.Fatalf("empty engine snapshot: %+v, %v", s, err)
	}
	e.Close()

	e = New(5, Options{Workers: 3})
	defer e.Close()
	e.AddSpan(graph.EdgeSpan{}) // empty batch still publishes
	if e.Batches() != 1 || e.ComponentCount() != 5 {
		t.Fatalf("after empty batch: batches=%d components=%d", e.Batches(), e.ComponentCount())
	}
	snap, err := e.AddSpan(graph.FromPairs([][2]int{{2, 2}, {0, 1}, {1, 0}, {0, 1}})) // self-loop + parallels
	if err != nil {
		t.Fatal(err)
	}
	if snap.Components != 4 {
		t.Fatalf("components = %d, want 4", snap.Components)
	}
	if snap.Edges != 4 || snap.Batches != 2 {
		t.Fatalf("snapshot bookkeeping: %+v", snap)
	}
	if !e.SameComponent(0, 1) || e.SameComponent(0, 2) {
		t.Fatal("SameComponent wrong after degenerate batch")
	}

	if _, err := e.AddSpan(graph.FromPairs([][2]int{{0, 5}})); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	// A rejected batch must not be applied even partially: the valid
	// {0,2} edge precedes the bad one, yet 2 must stay isolated.
	if _, err := e.AddSpan(graph.FromPairs([][2]int{{0, 2}, {-1, 2}})); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if e.SameComponent(0, 2) || e.Batches() != 2 {
		t.Fatal("rejected batch was partially applied")
	}
}

// TestWorkerCounts: every worker count gives the same labels.
func TestWorkerCounts(t *testing.T) {
	g := graph.Gnm(3000, 9000, 17)
	want := baseline.MinComponents(g)
	for _, w := range []int{1, 2, 3, 7, 16} {
		e := New(g.N, Options{Workers: w})
		snap := e.AddGraph(g)
		for v := range want {
			if snap.Labels[v] != want[v] {
				t.Fatalf("workers=%d: label[%d] = %d, want %d", w, v, snap.Labels[v], want[v])
			}
		}
		if e.Workers() != w {
			t.Fatalf("Workers() = %d, want %d", e.Workers(), w)
		}
		e.Close()
	}
}

func BenchmarkIncrementalOneBatch(b *testing.B) {
	g := graph.Gnm(100000, 400000, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(g.N, Options{})
		e.AddGraph(g)
		e.Close()
	}
}

func BenchmarkIncrementalStream16(b *testing.B) {
	g := graph.Gnm(100000, 400000, 42)
	batches := g.SpanBatches(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(g.N, Options{})
		for _, batch := range batches {
			e.AddSpan(batch)
		}
		e.Close()
	}
}

// BenchmarkIncrementalAppendBatch measures the steady-state cost of
// one small append batch against an already-built labeling — the
// latency a streaming consumer actually pays per update.
func BenchmarkIncrementalAppendBatch(b *testing.B) {
	g := graph.Gnm(100000, 400000, 42)
	e := New(g.N, Options{})
	defer e.Close()
	e.AddGraph(g)
	rng := rand.New(rand.NewSource(7))
	batch := graph.EdgeSpan{U: make([]int32, 2*1024), V: make([]int32, 2*1024)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(batch.U); j += 2 {
			u, v := int32(rng.Intn(g.N)), int32(rng.Intn(g.N))
			batch.U[j], batch.V[j], batch.U[j+1], batch.V[j+1] = u, v, v, u
		}
		e.AddSpan(batch)
	}
}

// TestEngineReset: a Reset engine (buffer and pool reuse) must be
// indistinguishable from a freshly built one, across shrinking and
// growing vertex counts.
func TestEngineReset(t *testing.T) {
	e := New(0, Options{Workers: 3})
	defer e.Close()
	graphs := []*graph.Graph{
		graph.Gnm(2000, 6000, 1),
		graph.Path(301),
		graph.Gnm(5000, 1200, 2),
	}
	for i, g := range graphs {
		e.Reset(g.N)
		if e.N() != g.N || e.ComponentCount() != g.N || e.Batches() != 0 || e.EdgesIngested() != 0 {
			t.Fatalf("graph %d: reset state wrong: n=%d comps=%d batches=%d edges=%d",
				i, e.N(), e.ComponentCount(), e.Batches(), e.EdgesIngested())
		}
		snap := e.AddGraph(g)
		if snap.Batches != 1 {
			t.Fatalf("graph %d: batches=%d after one AddGraph", i, snap.Batches)
		}
		if err := check.SamePartition(snap.Labels, baseline.Components(g)); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
	}
}

// TestEngineGrow: Grow preserves components, isolates the new
// vertices, and lets later batches connect them.
func TestEngineGrow(t *testing.T) {
	e := New(10, Options{Workers: 2})
	defer e.Close()
	if _, err := e.AddSpan(graph.FromPairs([][2]int{{0, 1}, {1, 2}})); err != nil {
		t.Fatal(err)
	}
	e.Grow(12)
	e.Grow(5) // no-op shrink attempt
	if e.N() != 12 {
		t.Fatalf("N after grow = %d", e.N())
	}
	snap, err := e.AddSpan(graph.FromPairs([][2]int{{2, 10}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Labels) != 12 {
		t.Fatalf("snapshot over %d vertices, want 12", len(snap.Labels))
	}
	if snap.Labels[10] != snap.Labels[0] || snap.Labels[11] != 11 {
		t.Fatalf("grown-vertex labels wrong: %v", snap.Labels)
	}
	// 12 vertices, component {0,1,2,10}, 8 singletons => 9 components.
	if snap.Components != 9 {
		t.Fatalf("components = %d, want 9", snap.Components)
	}
}
