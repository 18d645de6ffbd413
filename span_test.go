package pramcc

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/graph"
	"repro/internal/baseline"
	"repro/internal/check"
)

// FuzzSpanPairEquivalence: for an arbitrary multigraph and an
// arbitrary batch split, the three ways the fast backend reaches a
// labeling — the columnar span replay (Service.IngestSpan), the boxed
// pair replay (Service.Ingest), and a one-shot solve — must equal the
// minimum-id oracle exactly (all three canonicalize to component
// minima, so equality is elementwise, not merely up-to-relabeling),
// and the simulated backend must induce the same partition.
func FuzzSpanPairEquivalence(f *testing.F) {
	f.Add(uint16(10), uint16(20), int64(1), uint64(1))
	f.Add(uint16(100), uint16(50), int64(2), uint64(7))
	f.Add(uint16(1), uint16(0), int64(3), uint64(9))
	f.Add(uint16(300), uint16(2000), int64(4), uint64(3))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, gseed int64, splitSeed uint64) {
		n := int(nRaw%400) + 1
		m := int(mRaw % 1500)
		g := graph.Gnm(n, m, gseed)

		want := baseline.MinComponents(g)
		one, err := Components(g, WithBackend(BackendIncremental))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(one.Labels, want) {
			t.Fatalf("one-shot labels differ from the oracle: %v vs %v", one.Labels, want)
		}
		sim, err := Components(g, WithSeed(uint64(gseed)))
		if err != nil {
			t.Fatal(err)
		}
		if err := check.SamePartition(sim.Labels, want); err != nil {
			t.Fatalf("simulated: %v", err)
		}

		// Random contiguous cut points, shared by both replays.
		rng := rand.New(rand.NewSource(int64(splitSeed)))
		var cuts []int
		for lo := 0; lo < m; {
			hi := lo + 1 + rng.Intn(m-lo)
			cuts = append(cuts, hi)
			lo = hi
		}

		spanSv := newStream(t, g.N)
		pairSv := newStream(t, g.N)
		ctx := context.Background()
		span := g.Span()
		edges := g.Edges()
		lo := 0
		for _, hi := range cuts {
			if _, err := spanSv.IngestSpan(ctx, span.Slice(lo, hi)); err != nil {
				t.Fatal(err)
			}
			if _, err := pairSv.Ingest(ctx, edges[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}

		spanLabels := spanSv.LabelsInto(nil)
		pairLabels := pairSv.Labels()
		if !slices.Equal(spanLabels, want) {
			t.Fatalf("span labels differ from the oracle: %v vs %v", spanLabels, want)
		}
		if !slices.Equal(pairLabels, want) {
			t.Fatalf("pair labels differ from the oracle: %v vs %v", pairLabels, want)
		}
	})
}

// TestIncrementalSpanConcurrentReaders is the -race stress of the
// span pipeline: reader goroutines hammer SameComponent and the
// zero-alloc LabelsInto (each reusing its own buffer) while the
// writer loops span batches. The race detector is the main
// assertion; each observed labeling must also be internally
// consistent (a prefix of the stream, so labels ≤ vertex ids and
// components only merge).
func TestIncrementalSpanConcurrentReaders(t *testing.T) {
	g := graph.Gnm(4000, 20000, 77)
	sv := newStream(t, g.N)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []int32
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				buf = sv.LabelsInto(buf)
				for v, l := range buf {
					if int(l) > v {
						t.Errorf("label[%d] = %d exceeds vertex id", v, l)
						return
					}
				}
				_ = sv.SameComponent((r+i)%g.N, g.N-1-r)
			}
		}(r)
	}
	for _, batch := range g.SpanBatches(50) {
		if _, err := sv.IngestSpan(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if !slices.Equal(sv.Labels(), baseline.MinComponents(g)) {
		t.Fatal("final span-replayed labels differ from the minimum-id oracle")
	}
}

// TestServiceIngestSpan: the zero-copy service path equals the
// minimum-id oracle and the one-shot solve, and concurrent LabelsInto
// readers stay consistent during the span-ingest loop.
func TestServiceIngestSpan(t *testing.T) {
	g := graph.Gnm(3000, 12000, 13)
	sv, err := NewService(g.N, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []int32
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf = sv.LabelsInto(buf)
			if len(buf) != g.N {
				t.Errorf("LabelsInto returned %d labels, want %d", len(buf), g.N)
				return
			}
			_ = sv.SameComponent(0, g.N-1)
		}
	}()

	var last *Result
	for _, batch := range g.SpanBatches(20) {
		res, err := sv.IngestSpan(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	close(stop)
	wg.Wait()

	if !slices.Equal(last.Labels, baseline.MinComponents(g)) {
		t.Fatal("IngestSpan labels differ from the minimum-id oracle")
	}
	one, err := Components(g, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	if last.NumComponents != one.NumComponents {
		t.Fatalf("IngestSpan components = %d, one-shot %d", last.NumComponents, one.NumComponents)
	}
}

// TestServiceIngestSpanErrors: malformed spans are rejected whole
// with the snapshot untouched; non-streaming backends refuse.
func TestServiceIngestSpanErrors(t *testing.T) {
	sv, err := NewService(4, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	before := sv.Snapshot()
	if _, err := sv.IngestSpan(context.Background(), graph.FromPairs([][2]int{{0, 9}})); err == nil {
		t.Fatal("out-of-range span accepted")
	}
	if sv.Snapshot() != before {
		t.Fatal("rejected span advanced the snapshot")
	}

	sim, err := NewService(4, WithBackend(BackendSimulated))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.IngestSpan(context.Background(), graph.FromPairs([][2]int{{0, 1}})); err == nil {
		t.Fatal("IngestSpan on a non-streaming backend accepted")
	}
}

// TestServiceIngestRejectsOverflowingEndpoint pins the boxed
// boundary's truncation guard on both Ingest entry points — Service
// and router Tenant: an endpoint beyond int32 must be rejected as out
// of range, never silently narrowed into an accidentally-valid vertex
// (1<<32 truncates to 0).
func TestServiceIngestRejectsOverflowingEndpoint(t *testing.T) {
	ctx := context.Background()
	overflow := [][2]int{{1 << 32, 1}}
	sv := newStream(t, 4)
	if _, err := sv.Ingest(ctx, overflow); err == nil {
		t.Fatal("Service: endpoint 1<<32 accepted (silent int32 truncation)")
	}
	if sv.SameComponent(0, 1) {
		t.Fatal("Service: truncated edge was applied")
	}

	r, err := NewRouter(RouterConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tn, err := r.CreateTenant("overflow", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Ingest(ctx, overflow); err == nil {
		t.Fatal("Tenant: endpoint 1<<32 accepted (silent int32 truncation)")
	}
	if tn.SameComponent(0, 1) || tn.NumComponents() != 4 {
		t.Fatal("Tenant: truncated edge was applied")
	}
}

// TestIncrementalAddSpanStats: per-batch Stats on the span path —
// backend, rounds = batches so far, component count equal to the
// published snapshot's — and IngestSpan on a closed service errors.
func TestIncrementalAddSpanStats(t *testing.T) {
	g := graph.Gnm(500, 2000, 5)
	sv := newStream(t, g.N)
	batches := g.SpanBatches(4)
	for i, b := range batches {
		res, err := sv.IngestSpan(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Backend != BackendIncremental || res.Stats.Rounds != i+1 || res.NumComponents != sv.NumComponents() {
			t.Fatalf("batch %d: stats %+v, %d components (snapshot %d)", i, res.Stats, res.NumComponents, sv.NumComponents())
		}
	}
	if err := check.Components(g, sv.Labels()); err != nil {
		t.Fatal(err)
	}
	sv.Close()
	if _, err := sv.IngestSpan(context.Background(), batches[0]); !errors.Is(err, ErrSolverClosed) {
		t.Fatalf("IngestSpan on closed service: %v, want ErrSolverClosed", err)
	}
}

// TestLabelsInto: buffer reuse semantics — a big enough buffer is
// reused in place, a short one is replaced, nil allocates — and the
// steady state allocates nothing.
func TestLabelsInto(t *testing.T) {
	g := graph.Gnm(1000, 3000, 9)
	sv := newStream(t, g.N)
	if _, err := sv.IngestSpan(context.Background(), g.Span()); err != nil {
		t.Fatal(err)
	}

	want := sv.Labels()
	buf := make([]int32, 0, g.N)
	got := sv.LabelsInto(buf)
	if !slices.Equal(got, want) {
		t.Fatal("LabelsInto differs from Labels")
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("LabelsInto did not reuse a big-enough buffer")
	}
	if short := sv.LabelsInto(make([]int32, 1)); !slices.Equal(short, want) {
		t.Fatal("LabelsInto with a short buffer differs")
	}
	if fromNil := sv.LabelsInto(nil); !slices.Equal(fromNil, want) {
		t.Fatal("LabelsInto(nil) differs")
	}

	if !raceEnabled {
		if avg := testing.AllocsPerRun(10, func() { got = sv.LabelsInto(got) }); avg != 0 {
			t.Fatalf("steady-state LabelsInto allocates %.1f times, want 0", avg)
		}
	}
}
