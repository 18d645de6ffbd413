package pram

import (
	"testing"
	"testing/quick"
)

func TestStepRunsEveryProcessorOnce(t *testing.T) {
	m := New(0)
	const procs = 5000
	order := make([]int, 0, procs)
	m.Step(procs, func(i int) { order = append(order, i) })
	if len(order) != procs {
		t.Fatalf("%d processors ran, want %d", len(order), procs)
	}
	for k, i := range order {
		if i != k {
			t.Fatalf("invocation %d ran processor %d: processors must run once each, in index order", k, i)
		}
	}
	order = order[:0]
	m.StepN(1, procs, func(i int) { order = append(order, i) })
	for k, i := range order {
		if i != k {
			t.Fatalf("StepN invocation %d ran iteration %d, want index order", k, i)
		}
	}
	if len(order) != procs {
		t.Fatalf("StepN ran %d iterations, want %d", len(order), procs)
	}
}

func TestStepAccounting(t *testing.T) {
	m := New(1)
	m.Step(10, func(int) {})
	m.Step(100, func(int) {})
	m.StepCost(3, 7, func(int) {})
	s := m.Stats()
	if s.Steps != 1+1+3 {
		t.Errorf("steps = %d, want 5", s.Steps)
	}
	if s.Work != 10+100+21 {
		t.Errorf("work = %d, want 131", s.Work)
	}
	if s.MaxProcs != 100 {
		t.Errorf("maxProcs = %d, want 100", s.MaxProcs)
	}
}

func TestStepN(t *testing.T) {
	m := New(4)
	count := 0
	m.StepN(1000, 37, func(int) { count++ })
	if count != 37 {
		t.Errorf("iterations = %d, want 37", count)
	}
	s := m.Stats()
	if s.Work != 1000 || s.Steps != 1 || s.MaxProcs != 1000 {
		t.Errorf("accounting wrong: %+v", s)
	}
}

func TestZeroProcsStep(t *testing.T) {
	m := New(4)
	m.Step(0, func(int) { t.Fatal("must not run") })
	if m.Stats().Steps != 1 {
		t.Error("zero-proc step still costs one time unit")
	}
}

func TestNegativeStepPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		step func(m *Machine)
	}{
		{"Step procs", func(m *Machine) { m.Step(-1, func(int) {}) }},
		{"StepCost cost", func(m *Machine) { m.StepCost(-1, 1, func(int) {}) }},
		{"StepCost procs", func(m *Machine) { m.StepCost(1, -1, func(int) {}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := New(0)
			defer func() {
				err, ok := recover().(error)
				if !ok || err.Error() == "" {
					t.Fatalf("recovered %v, want a non-empty error", err)
				}
				if s := m.Stats(); s != (Stats{}) {
					t.Errorf("a rejected step was charged: %+v", s)
				}
			}()
			c.step(m)
		})
	}
}

func TestAllocFree(t *testing.T) {
	m := New(1)
	m.Alloc(100)
	m.Alloc(50)
	m.Free(120)
	s := m.Stats()
	if s.Space != 30 || s.MaxSpace != 150 {
		t.Errorf("space=%d maxSpace=%d, want 30, 150", s.Space, s.MaxSpace)
	}
}

func TestReset(t *testing.T) {
	m := New(1)
	m.Step(5, func(int) {})
	m.Alloc(9)
	m.Reset()
	if s := m.Stats(); s != (Stats{}) {
		t.Errorf("stats not zeroed: %+v", s)
	}
}

func TestCoinDeterministic(t *testing.T) {
	f := func(seed, round, index uint64) bool {
		c := Coin{Seed: seed}
		return c.U64(round, index) == c.U64(round, index) &&
			c.Float(round, index) >= 0 && c.Float(round, index) < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoinBernoulliBounds(t *testing.T) {
	c := Coin{Seed: 7}
	if c.Bernoulli(1, 1, 0) {
		t.Error("p=0 must be false")
	}
	if !c.Bernoulli(1, 1, 1) {
		t.Error("p=1 must be true")
	}
}

func TestCoinBernoulliFrequency(t *testing.T) {
	c := Coin{Seed: 11}
	const trials = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if c.Bernoulli(3, uint64(i), p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if got < p-0.01 || got > p+0.01 {
			t.Errorf("Bernoulli(%.1f) frequency %.4f", p, got)
		}
	}
}

func TestCoinIntnRange(t *testing.T) {
	c := Coin{Seed: 3}
	for i := 0; i < 1000; i++ {
		v := c.Intn(1, uint64(i), 17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestMaxCombine(t *testing.T) {
	var cell int64
	MaxCombine64(&cell, 5)
	MaxCombine64(&cell, 3)
	MaxCombine64(&cell, 9)
	if cell != 9 {
		t.Errorf("max = %d, want 9", cell)
	}
}

func TestPackUnpackLevelVertex(t *testing.T) {
	f := func(level int32, vertex int32) bool {
		if level < 0 {
			level = -level
		}
		l, v := UnpackLevelVertex(PackLevelVertex(level, vertex))
		return l == level && v == vertex
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackOrdering(t *testing.T) {
	// Higher level must always pack greater regardless of vertex ids.
	lo := PackLevelVertex(2, 1<<30)
	hi := PackLevelVertex(3, 0)
	if lo >= hi {
		t.Error("packing does not order by level first")
	}
}

func TestConcurrentMaxCombine(t *testing.T) {
	m := New(8)
	var cell int64
	m.Step(10000, func(i int) {
		MaxCombine64(&cell, int64(i))
	})
	if cell != 9999 {
		t.Errorf("concurrent max = %d, want 9999", cell)
	}
}

func TestSplitMix64NotIdentity(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := SplitMix64(i)
		if seen[v] {
			t.Fatalf("collision at %d", i)
		}
		seen[v] = true
	}
}
