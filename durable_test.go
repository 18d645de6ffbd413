package pramcc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/graph"
	"repro/internal/check"
	"repro/internal/durable"
)

// openDurable opens a durable service and fails the test on error.
func openDurable(t *testing.T, dir string, opts ...Option) *Service {
	t.Helper()
	sv, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return sv
}

func TestOpenFreshIngestReopen(t *testing.T) {
	dir := t.TempDir()
	sv := openDurable(t, dir, WithInitialVertices(6), WithCheckpointEvery(4))
	if _, ok := sv.RecoveryStats(); ok {
		t.Fatal("cold open reported recovery stats")
	}
	if seq, ok := sv.DurableSeq(); !ok || seq != 0 {
		t.Fatalf("DurableSeq = (%d, %v), want (0, true)", seq, ok)
	}
	if _, err := sv.Ingest(nil, [][2]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if err := sv.Grow(9); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if _, err := sv.Ingest(nil, [][2]int{{3, 7}, {1, 2}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	want := sv.Labels()
	wantComponents := sv.NumComponents()
	if seq, _ := sv.DurableSeq(); seq != 3 {
		t.Fatalf("DurableSeq = %d after 3 batches, want 3", seq)
	}
	sv.Close()

	sv2 := openDurable(t, dir)
	defer sv2.Close()
	if err := check.SamePartition(sv2.Labels(), want); err != nil {
		t.Fatalf("reopened labeling diverged: %v", err)
	}
	if got := sv2.NumComponents(); got != wantComponents {
		t.Fatalf("reopened NumComponents = %d, want %d", got, wantComponents)
	}
	if seq, _ := sv2.DurableSeq(); seq != 3 {
		t.Fatalf("reopened DurableSeq = %d, want 3", seq)
	}
	stats, ok := sv2.RecoveryStats()
	if !ok {
		t.Fatal("warm start reported no recovery stats")
	}
	// CheckpointEvery was 4 and only 3 batches were logged, so every
	// batch replays from the WAL on top of the initial snapshot.
	if stats.SnapshotSeq != 0 || stats.ReplayedBatches != 3 {
		t.Fatalf("recovery stats %+v, want snapshot 0 + 3 replayed batches", stats)
	}
	if stats.ReplayedEdges != 4 {
		t.Fatalf("recovery replayed %d edges, want 4", stats.ReplayedEdges)
	}

	// The reopened service keeps working and stays durable.
	if _, err := sv2.Ingest(nil, [][2]int{{5, 8}}); err != nil {
		t.Fatalf("Ingest after reopen: %v", err)
	}
	if seq, _ := sv2.DurableSeq(); seq != 4 {
		t.Fatalf("DurableSeq after post-reopen ingest = %d, want 4", seq)
	}
}

// TestReplayEquivalence is the warm-start correctness property: for
// random graphs ingested in random batch cuts under random checkpoint
// cadences, the labels served after reopen must equal both the labels
// served before the crash point and a cold full recompute of the same
// edges.
func TestReplayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 20 + rng.Intn(200)
			g := graph.Gnm(n, 2+rng.Intn(4*n), seed)
			batches := g.SpanBatches(1 + rng.Intn(9))
			every := 1 + rng.Intn(5)

			dir := t.TempDir()
			sv := openDurable(t, dir, WithInitialVertices(n), WithCheckpointEvery(every))
			for i, b := range batches {
				if _, err := sv.IngestSpan(nil, b); err != nil {
					t.Fatalf("IngestSpan %d: %v", i, err)
				}
			}
			live := sv.Labels()
			sv.Close()

			warm := openDurable(t, dir)
			defer warm.Close()
			if err := check.SamePartition(warm.Labels(), live); err != nil {
				t.Fatalf("warm start != pre-close labels: %v", err)
			}

			cold, err := NewService(0, WithBackend(BackendIncremental))
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			res, err := cold.Update(nil, g)
			if err != nil {
				t.Fatalf("cold Update: %v", err)
			}
			if err := check.SamePartition(warm.Labels(), res.Labels); err != nil {
				t.Fatalf("warm start != cold Update: %v", err)
			}
			if err := check.SamePartition(warm.Labels(), g.ComponentsBFS()); err != nil {
				t.Fatalf("warm start != BFS oracle: %v", err)
			}
		})
	}
}

// TestDurableUpdateAndCancelRegression covers the Update paths of a
// persisted service: a successful Update checkpoints before it
// publishes (so reopen serves the rebuilt labeling), and a cancelled
// Update leaves both the published snapshot and the WAL position
// untouched — replay after the failure must not double-apply anything.
func TestDurableUpdateAndCancelRegression(t *testing.T) {
	dir := t.TempDir()
	g := graph.Gnm(60, 200, 3)
	sv := openDurable(t, dir, WithInitialVertices(4), WithCheckpointEvery(8))
	if _, err := sv.Ingest(nil, [][2]int{{0, 1}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if _, err := sv.Update(nil, g); err != nil {
		t.Fatalf("Update: %v", err)
	}
	seqAfterUpdate, _ := sv.DurableSeq()
	wantAfterUpdate := sv.Labels()

	// Mid-run cancellation: the solve destroys and then restores the
	// live forest; the store must not move.
	if _, err := sv.Update(newCancelAfter(2), graph.Gnm(30, 5000, 5)); err == nil {
		t.Fatal("cancelled Update succeeded")
	}
	if seq, _ := sv.DurableSeq(); seq != seqAfterUpdate {
		t.Fatalf("cancelled Update moved DurableSeq %d -> %d", seqAfterUpdate, seq)
	}
	if err := check.SamePartition(sv.Labels(), wantAfterUpdate); err != nil {
		t.Fatalf("cancelled Update changed served labels: %v", err)
	}
	// The service must still ingest correctly after the failed rebuild.
	if _, err := sv.Ingest(nil, [][2]int{{0, 2}}); err != nil {
		t.Fatalf("Ingest after cancelled Update: %v", err)
	}
	final := sv.Labels()
	sv.Close()

	warm := openDurable(t, dir)
	defer warm.Close()
	if err := check.SamePartition(warm.Labels(), final); err != nil {
		t.Fatalf("reopen after cancelled Update diverged: %v", err)
	}
}

// TestPersistRoundTrip covers Service.Persist: a live in-memory
// service becomes durable mid-flight and a later Open resumes it.
func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sv, err := NewService(8, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Ingest(nil, [][2]int{{0, 1}, {1, 2}}); err != nil {
		t.Fatalf("Ingest before Persist: %v", err)
	}
	if err := sv.Persist(dir, WithCheckpointEvery(2)); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	if err := sv.Persist(t.TempDir()); err == nil {
		t.Fatal("second Persist succeeded")
	}
	if seq, ok := sv.DurableSeq(); !ok || seq != 0 {
		t.Fatalf("DurableSeq after Persist = (%d, %v), want (0, true)", seq, ok)
	}
	if _, err := sv.Ingest(nil, [][2]int{{3, 4}}); err != nil {
		t.Fatalf("Ingest after Persist: %v", err)
	}
	want := sv.Labels()
	sv.Close()

	warm := openDurable(t, dir)
	if err := check.SamePartition(warm.Labels(), want); err != nil {
		t.Fatalf("reopen of a persisted service diverged: %v", err)
	}
	warm.Close()

	// Persisting over an existing store must be refused: that data
	// belongs to Open.
	other, err := NewService(3, WithBackend(BackendIncremental))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Persist(dir); err == nil {
		t.Fatal("Persist over an existing store succeeded")
	}

	// Non-streaming backends cannot replay a WAL.
	sim, err := NewService(3, WithBackend(BackendSimulated))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Persist(t.TempDir()); err == nil {
		t.Fatal("Persist on a simulated backend succeeded")
	}
}

func TestOpenRejectsNonStreamingBackend(t *testing.T) {
	if _, err := Open(t.TempDir(), WithBackend(BackendSimulated)); err == nil {
		t.Fatal("Open with a non-streaming backend succeeded")
	}
}

// TestServiceCrashEveryWriteOffset is the service-level crash suite:
// the full Open/Ingest/Grow flow runs once per write budget, each run
// losing power at a different byte of a different durability write
// site, and every reopen must serve a labeling the service actually
// acknowledged for some prefix of the batch sequence — never a torn or
// invented one — with every acknowledged batch preserved.
func TestServiceCrashEveryWriteOffset(t *testing.T) {
	type op struct {
		edges  [][2]int
		growTo int
	}
	ops := []op{
		{edges: [][2]int{{0, 1}, {2, 3}}},
		{edges: [][2]int{{1, 2}}},
		{growTo: 9},
		{edges: [][2]int{{6, 7}, {4, 5}}},
		{edges: [][2]int{{3, 6}}},
		{edges: [][2]int{{0, 5}}},
	}
	const n0 = 6
	workload := func(dir string, fsys durable.FS) (acked int) {
		sv, err := openFS(dir, fsys, WithInitialVertices(n0), WithCheckpointEvery(2))
		if err != nil {
			return 0
		}
		defer sv.Close()
		for _, o := range ops {
			if o.growTo > 0 {
				err = sv.Grow(o.growTo)
			} else {
				_, err = sv.Ingest(nil, o.edges)
			}
			if err != nil {
				return acked
			}
			acked++
		}
		return acked
	}

	// The expected partition after each op prefix, from the BFS oracle.
	wantAt := make([][]int32, len(ops)+1)
	{
		g := &graph.Graph{N: n0}
		wantAt[0] = g.ComponentsBFS()
		for i, o := range ops {
			if o.growTo > 0 {
				g.N = o.growTo
			} else {
				for _, e := range o.edges {
					g.AddEdge(e[0], e[1])
				}
			}
			wantAt[i+1] = g.Clone().ComponentsBFS()
		}
	}

	probe := durable.NewFailFS(durable.OSFS{}, 1<<40)
	if got := workload(t.TempDir(), probe); got != len(ops) {
		t.Fatalf("probe workload acked %d/%d ops", got, len(ops))
	}
	total := probe.Cost()

	stride := int64(1)
	if testing.Short() {
		stride = 11
	}
	for budget := int64(0); budget < total; budget += stride {
		dir := t.TempDir()
		acked := workload(dir, durable.NewFailFS(durable.OSFS{}, budget))

		sv, err := Open(dir)
		if err != nil {
			t.Fatalf("budget %d: reopen after crash: %v", budget, err)
		}
		seq, ok := sv.DurableSeq()
		if !ok {
			t.Fatalf("budget %d: reopened service not durable", budget)
		}
		if int(seq) < acked || int(seq) > len(ops) {
			t.Fatalf("budget %d: recovered seq %d outside [acked %d, %d]", budget, seq, acked, len(ops))
		}
		if len(sv.Labels()) == 0 && acked == 0 {
			// Crashed before the initial checkpoint: a legitimately fresh
			// (empty) store.
			sv.Close()
			continue
		}
		if err := check.SamePartition(sv.Labels(), wantAt[seq]); err != nil {
			t.Fatalf("budget %d: recovered labeling at seq %d wrong: %v", budget, seq, err)
		}
		sv.Close()
	}
}

// TestConcurrentQueriesDuringRecovery drives lock-free queries against
// a service while its WAL replay is still running — the -race lane's
// check that recovery publishes snapshots with the same discipline as
// the live write path.
func TestConcurrentQueriesDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	g := graph.Gnm(300, 900, 42)
	sv := openDurable(t, dir, WithInitialVertices(g.N), WithCheckpointEvery(1000))
	for _, b := range g.SpanBatches(24) {
		if _, err := sv.IngestSpan(nil, b); err != nil {
			t.Fatal(err)
		}
	}
	want := sv.Labels()
	sv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	recoveryHook = func(sv *Service) {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var buf []int32
				rng := rand.New(rand.NewSource(int64(w)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					sv.SameComponent(rng.Intn(g.N), rng.Intn(g.N))
					buf = sv.LabelsInto(buf)
					sv.NumComponents()
				}
			}(w)
		}
	}
	defer func() { recoveryHook = nil }()

	warm, err := Open(dir)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	defer warm.Close()
	stats, ok := warm.RecoveryStats()
	if !ok || stats.ReplayedBatches != 24 {
		t.Fatalf("recovery stats %+v, want 24 replayed batches", stats)
	}
	if err := check.SamePartition(warm.Labels(), want); err != nil {
		t.Fatalf("labels diverged after concurrent-query recovery: %v", err)
	}
}
