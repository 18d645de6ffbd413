package pool

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestAdaptiveGrain(t *testing.T) {
	cases := []struct {
		total, workers, want int
	}{
		{0, 1, MinGrain},                         // empty sweep clamps to the floor
		{100, 8, MinGrain},                       // tiny sweep: floor
		{1 << 20, 1, MaxGrain},                   // huge single-worker sweep: ceiling
		{1 << 20, 4, MaxGrain},                   // 1Mi/32 = 32768 -> ceiling
		{64 * 8 * 4, 4, 64},                      // exactly workers*chunksPerRange*64
		{8 * chunksPerRange * 100, 8, 100},       // mid-range: total/(workers*8)
		{10, 0, MinGrain},                        // workers clamped to 1
		{MaxGrain * chunksPerRange, 1, MaxGrain}, // single worker at the ceiling boundary
	}
	for _, c := range cases {
		if got := AdaptiveGrain(c.total, c.workers); got != c.want {
			t.Errorf("AdaptiveGrain(%d, %d) = %d, want %d", c.total, c.workers, got, c.want)
		}
	}
}

// TestShardedCoversExactlyOnce is the scheduler's core contract: every
// index in [0, total) is visited by exactly one chunk, across grain
// sizes (including 1, 7, the legacy 4096, and adaptive), worker
// counts, and totals that do and don't divide evenly.
// Run under -race this doubles as the scheduler stress test.
func TestShardedCoversExactlyOnce(t *testing.T) {
	grains := []int{1, 7, 64, 4096, 0} // 0 = adaptive
	totals := []int{1, 5, 63, 64, 65, 1000, 4096, 10000}
	workers := []int{1, 2, 3, 8}
	for _, w := range workers {
		p := New(w)
		for _, g := range grains {
			for _, total := range totals {
				seen := make([]atomic.Int32, total)
				p.Sharded(total, g, func(_, lo, hi int) bool {
					if lo < 0 || hi > total || lo >= hi {
						t.Errorf("bad chunk [%d,%d) for total=%d", lo, hi, total)
						return false
					}
					for i := lo; i < hi; i++ {
						seen[i].Add(1)
					}
					return true
				})
				for i := range seen {
					if n := seen[i].Load(); n != 1 {
						t.Fatalf("workers=%d grain=%d total=%d: index %d visited %d times",
							w, g, total, i, n)
					}
				}
			}
		}
		p.Close()
	}
}

func TestShardedZeroTotal(t *testing.T) {
	p := New(2)
	defer p.Close()
	called := atomic.Int32{}
	p.Sharded(0, 0, func(_, _, _ int) bool { called.Add(1); return true })
	p.Sharded(-5, 0, func(_, _, _ int) bool { called.Add(1); return true })
	if n := called.Load(); n != 0 {
		t.Fatalf("job called %d times for empty sweeps, want 0", n)
	}
}

// TestShardedStopsOnFalse pins the per-chunk cancellation contract: a
// job returning false ends that worker's claim loop, including its
// stealing phase.
func TestShardedStopsOnFalse(t *testing.T) {
	p := New(1)
	defer p.Close()
	calls := 0
	p.Sharded(10000, 64, func(_, _, _ int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("single worker made %d chunk calls after returning false on the first, want 1", calls)
	}
}

// TestShardedStealingEngages makes one home range artificially slow and
// asserts other workers steal from it: with worker 0 sleeping on every
// chunk it executes, the bulk of range 0's indexes must be processed by
// workers whose home lies elsewhere. This holds even on one CPU — the
// sleeping worker blocks and yields its P to the thieves.
func TestShardedStealingEngages(t *testing.T) {
	const (
		w     = 4
		grain = 16
		total = 1024 // range 0 = [0, 256): 16 chunks of slow work
	)
	p := New(w)
	defer p.Close()
	executor := make([]atomic.Int32, total)
	p.Sharded(total, grain, func(worker, lo, hi int) bool {
		if worker == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		for i := lo; i < hi; i++ {
			executor[i].Store(int32(worker) + 1)
		}
		return true
	})
	stolen := 0
	for i := 0; i < total/w; i++ {
		switch e := executor[i].Load(); e {
		case 0:
			t.Fatalf("index %d never executed", i)
		case 1: // worker 0, the home owner
		default:
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("no index of the slow home range was stolen by another worker")
	}
}

// TestShardedStealsFromMostLoaded pins the victim-selection policy by
// driving a Shard sequentially: after draining its home range, a
// worker must steal from the range with the most unclaimed items
// first, not simply the next one over.
func TestShardedStealsFromMostLoaded(t *testing.T) {
	var s Shard
	stopAfter := 0
	var order []int
	// Ranges of [0, 90) over 3 workers: [0,30), [30,60), [60,90).
	s.Init(90, 10, 3, func(worker, lo, _ int) bool {
		if worker == 1 {
			stopAfter--
			return stopAfter > 0
		}
		order = append(order, lo)
		return true
	})
	// Worker 1 claims two chunks of its home range and stops, leaving
	// [50, 60) unclaimed there.
	stopAfter = 2
	s.Work(1)
	// Worker 0 drains its home [0, 30), then must steal from range 2
	// (30 items left) before finishing range 1 (10 items left).
	s.Work(0)
	want := []int{0, 10, 20, 60, 70, 80, 50}
	if len(order) != len(want) {
		t.Fatalf("worker 0 claimed chunks at %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("worker 0 claimed chunks at %v, want %v (most-loaded range first)", order, want)
		}
	}
}

// TestShardedHomeRangesAreSticky pins the affinity property: a worker
// claims its first chunk at the start of its own home range. Each job
// call stops its worker after one chunk, so no worker reaches the
// stealing phase and a late-starting worker still finds its home range
// untouched — the property holds on any schedule, however loaded the
// host.
func TestShardedHomeRangesAreSticky(t *testing.T) {
	const (
		w     = 4
		total = 4 * 4096
	)
	p := New(w)
	defer p.Close()
	var firstLo [w]atomic.Int64
	for i := range firstLo {
		firstLo[i].Store(-1)
	}
	p.Sharded(total, 64, func(worker, lo, _ int) bool {
		firstLo[worker].CompareAndSwap(-1, int64(lo))
		return false
	})
	for worker := 0; worker < w; worker++ {
		if lo, home := firstLo[worker].Load(), int64(worker*total/w); lo != home {
			t.Errorf("worker %d's first claim was %d, want the start of its home range %d", worker, lo, home)
		}
	}
}
