package pramcc

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
)

// newStream returns a streaming Service on the incremental backend —
// the package's one streaming handle — closed at test end.
func newStream(t *testing.T, n int, opts ...Option) *Service {
	t.Helper()
	sv, err := NewService(n, append([]Option{WithBackend(BackendIncremental)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Close)
	return sv
}

// TestIncrementalStreaming: the happy path of streaming on the
// incremental backend — a graph replayed in boxed batches with fresh
// answers and per-batch stats between batches.
func TestIncrementalStreaming(t *testing.T) {
	g := graph.CliqueBeads(graph.CliqueBeadsSpec{Beads: 20, Size: 10, IntraDeg: 6, Bridges: 1, Seed: 7})
	sv := newStream(t, g.N, WithWorkers(4))
	if sv.NumComponents() != g.N || sv.N() != g.N {
		t.Fatalf("fresh service: count=%d n=%d", sv.NumComponents(), sv.N())
	}
	batches := g.SpanBatches(7)
	for i, batch := range batches {
		res, err := sv.Ingest(context.Background(), batch.Pairs())
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.Backend != BackendIncremental || st.Workers != 4 || st.Rounds != i+1 {
			t.Fatalf("batch %d stats %+v, want backend=incremental workers=4 rounds=%d", i, st, i+1)
		}
		if res != sv.Snapshot() || res.NumComponents != sv.NumComponents() {
			t.Fatalf("batch %d: result is not the published snapshot (%d vs %d components)",
				i, res.NumComponents, sv.NumComponents())
		}
	}
	if err := check.SamePartition(sv.Labels(), baseline.Components(g)); err != nil {
		t.Fatal(err)
	}
	if sv.Snapshot().Stats.Rounds != len(batches) {
		t.Fatalf("snapshot rounds %d, want %d batches", sv.Snapshot().Stats.Rounds, len(batches))
	}
}

// TestIncrementalMatchesSimulated: after any randomized batch split,
// the streamed partition equals the simulated Theorem-3 partition.
func TestIncrementalMatchesSimulated(t *testing.T) {
	g := graph.Gnm(2000, 6000, 19)
	sim, err := Components(g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	edges := g.Edges()
	for trial := 0; trial < 3; trial++ {
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		sv := newStream(t, g.N)
		for lo := 0; lo < len(edges); {
			hi := lo + 1 + rng.Intn(len(edges)-lo)
			if _, err := sv.Ingest(context.Background(), edges[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if err := check.SamePartition(sv.Labels(), sim.Labels); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestIncrementalErrors: constructor and batch validation, and the
// closed-service contract.
func TestIncrementalErrors(t *testing.T) {
	if _, err := NewService(-1, WithBackend(BackendIncremental)); err == nil {
		t.Fatal("NewService(-1) succeeded")
	}
	sv := newStream(t, 10)
	ctx := context.Background()
	if _, err := sv.Ingest(ctx, [][2]int{{0, 10}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := sv.Ingest(ctx, [][2]int{{-1, 0}}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	// A rejected batch must not have been partially applied.
	if _, err := sv.Ingest(ctx, [][2]int{{0, 1}, {2, 99}}); err == nil {
		t.Fatal("half-bad batch accepted")
	}
	if sv.SameComponent(0, 1) {
		t.Fatal("rejected batch was partially applied")
	}
	res, err := sv.Ingest(ctx, [][2]int{{0, 1}})
	if err != nil {
		t.Fatalf("good batch after rejections: %v", err)
	}
	if res.NumComponents != 9 {
		t.Fatalf("good batch after rejections: %d components, want 9", res.NumComponents)
	}
	sv.Close()
	sv.Close() // double Close is a no-op
	if _, err := sv.Ingest(ctx, [][2]int{{0, 1}}); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("Ingest after Close: %v, want ErrSolverClosed", err)
	}
	if !sv.SameComponent(0, 1) {
		t.Fatal("queries must stay valid after Close")
	}
}

// TestIncrementalConcurrentQueries: the documented contract — queries
// racing Ingest are safe and see consistent snapshots (run under
// -race in CI).
func TestIncrementalConcurrentQueries(t *testing.T) {
	g := graph.Gnm(3000, 15000, 23)
	sv := newStream(t, g.N)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = sv.NumComponents()
					_ = sv.SameComponent(0, g.N-1)
				}
			}
		}()
	}
	for _, batch := range g.SpanBatches(40) {
		if _, err := sv.Ingest(context.Background(), batch.Pairs()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := check.SamePartition(sv.Labels(), baseline.Components(g)); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalCloseRace: Close racing Ingest (and other Close
// calls) must stay clean under -race — both serialize on the
// service's writer mutex — every Ingest must either apply fully or
// report ErrSolverClosed, and queries must survive throughout.
func TestIncrementalCloseRace(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 8; trial++ {
		g := graph.Gnm(2000, 8000, int64(trial))
		sv, err := NewService(g.N, WithBackend(BackendIncremental), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		batches := g.SpanBatches(16)
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(3)
		go func() { // writer
			defer wg.Done()
			<-start
			for _, b := range batches {
				if _, err := sv.Ingest(ctx, b.Pairs()); err != nil {
					if !errors.Is(err, ErrSolverClosed) {
						t.Errorf("Ingest racing Close: %v", err)
					}
					if !sv.SameComponent(0, 0) {
						t.Error("queries broken after closed-service error")
					}
					return // closed underneath us: the documented outcome
				}
			}
		}()
		go func() { // closer, racing the writer
			defer wg.Done()
			<-start
			if trial%2 == 0 {
				runtime.Gosched()
			}
			sv.Close()
		}()
		go func() { // second closer: Close must be idempotent under race
			defer wg.Done()
			<-start
			sv.Close()
		}()
		close(start)
		wg.Wait()
		// Whatever the interleaving, the service is closed now and the
		// snapshot is a consistent batch boundary.
		if _, err := sv.Ingest(ctx, [][2]int{{0, 1}}); err == nil {
			t.Fatal("Ingest succeeded after Close")
		}
		n := sv.NumComponents()
		if n < 1 || n > g.N {
			t.Fatalf("inconsistent component count %d", n)
		}
	}
}
