// Package pram simulates the ARBITRARY CRCW PRAM of the paper (§1.1):
// a set of processors with O(1) private memory each, a large common
// memory, and synchronous constant-time steps. Any number of processors
// may read or write the same common-memory cell concurrently; when
// several write the same cell in one step, an arbitrary one succeeds.
//
// The simulator is coarse-grained: Machine.Step(procs, f) runs one PRAM
// time unit by evaluating f(i) for every processor index i over a fixed
// pool of worker goroutines, with a barrier at the end of the step.
// Concurrent writes inside a step must go through the atomic helpers in
// cells.go; the scheduler then picks the surviving writer, which is a
// legal ARBITRARY resolution. The machine accounts simulated time
// (steps), per-step processor usage, and total work, so experiments
// report model costs rather than host wall clock.
package pram

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pool"
)

// Machine is an ARBITRARY CRCW PRAM simulator with cost accounting.
// The zero value is not usable; call New.
type Machine struct {
	workers int

	// shard is the reusable claim state behind runSharded, so the
	// simulator's per-step hot loop doesn't allocate a fresh cursor
	// slice every Step. shardBusy guards it: a nested step (a step body
	// invoking another Step) finds it taken and falls back to a
	// stack-local Shard.
	shard     pool.Shard
	shardBusy atomic.Bool

	steps    atomic.Int64 // simulated PRAM time units
	work     atomic.Int64 // sum over steps of processors used
	maxProcs atomic.Int64 // maximum processors used in a single step
	space    atomic.Int64 // currently allocated common-memory words
	maxSpace atomic.Int64 // peak allocated common-memory words
}

// New returns a machine executing steps over the given number of worker
// goroutines. workers <= 0 selects GOMAXPROCS. workers == 1 yields a
// deterministic sequential schedule (processor 0,1,2,… in order), which
// tests use to pin down exact behaviour.
func New(workers int) *Machine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Machine{workers: workers}
}

// Workers reports the size of the host worker pool.
func (m *Machine) Workers() int { return m.workers }

// Step executes one PRAM time unit with procs processors: f(i) is
// invoked exactly once for each i in [0, procs). All invocations of one
// step happen before Step returns (barrier semantics). Charging: one
// time unit, procs work.
func (m *Machine) Step(procs int, f func(i int)) {
	m.StepCost(1, procs, f)
}

// StepCost is Step but charges cost time units (used where the paper
// charges a known super-constant cost for a black-box primitive, e.g.
// approximate compaction's O(log* n)).
func (m *Machine) StepCost(cost, procs int, f func(i int)) {
	if cost < 0 || procs < 0 {
		panic(fmt.Sprintf("pram: negative cost %d or procs %d", cost, procs))
	}
	m.steps.Add(int64(cost))
	m.work.Add(int64(cost) * int64(procs))
	for {
		old := m.maxProcs.Load()
		if int64(procs) <= old || m.maxProcs.CompareAndSwap(old, int64(procs)) {
			break
		}
	}
	if procs == 0 {
		return
	}
	if m.workers == 1 || procs < 2048 {
		for i := 0; i < procs; i++ {
			f(i)
		}
		return
	}
	m.runSharded(procs, f)
}

// runSharded fans f over [0, total) on per-step goroutines, claiming
// chunks through a locality-aware shard (internal/pool): each worker
// sweeps a sticky home range of the processor index space first and
// steals from the others after — the same scheduler the native and
// incremental engines run on, so the spanning backend's tree-shortcut
// sweeps get the same range affinity. The worker count is capped at
// total so a step smaller than the pool never spawns goroutines whose
// home range would be empty. The machine's reusable shard (cursor
// slice and all) serves the common non-nested case; a nested step (a
// step body invoking another Step) finds shardBusy taken and runs on
// a stack-local Shard instead.
func (m *Machine) runSharded(total int, f func(i int)) {
	workers := m.workers
	if workers > total {
		workers = total
	}
	sh := &m.shard
	owned := m.shardBusy.CompareAndSwap(false, true)
	var nested pool.Shard
	if !owned {
		sh = &nested
	}
	sh.Init(total, 0, workers, func(_, lo, hi int) bool {
		for i := lo; i < hi; i++ {
			f(i)
		}
		return true
	})
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			sh.Work(w)
		}(w)
	}
	wg.Wait()
	if owned {
		m.shardBusy.Store(false)
	}
}

// StepN executes one PRAM time unit whose model cost is chargedProcs
// processors, while the host realizes it as iters loop iterations
// (e.g. the paper runs one processor per table-cell pair, but the host
// iterates per table owner). f(i) is invoked once per i in [0, iters).
func (m *Machine) StepN(chargedProcs, iters int, f func(i int)) {
	m.steps.Add(1)
	m.work.Add(int64(chargedProcs))
	for {
		old := m.maxProcs.Load()
		if int64(chargedProcs) <= old || m.maxProcs.CompareAndSwap(old, int64(chargedProcs)) {
			break
		}
	}
	if iters == 0 {
		return
	}
	if m.workers == 1 || iters < 256 {
		for i := 0; i < iters; i++ {
			f(i)
		}
		return
	}
	m.runSharded(iters, f)
}

// ChargeSteps adds time units without running processors. Used when an
// algorithm performs a constant number of bookkeeping sub-steps that
// the host executes inline.
func (m *Machine) ChargeSteps(n int) { m.steps.Add(int64(n)) }

// Alloc records the allocation of words of common memory (a processor
// block in the paper's terminology) and updates the peak.
func (m *Machine) Alloc(words int) {
	now := m.space.Add(int64(words))
	for {
		old := m.maxSpace.Load()
		if now <= old || m.maxSpace.CompareAndSwap(old, now) {
			break
		}
	}
}

// Free records the release of words of common memory.
func (m *Machine) Free(words int) { m.space.Add(-int64(words)) }

// Stats is a snapshot of the machine's cost counters.
type Stats struct {
	Steps    int64 // simulated PRAM time
	Work     int64 // Σ steps × processors
	MaxProcs int64 // peak processors in one step
	Space    int64 // currently allocated common-memory words
	MaxSpace int64 // peak allocated common-memory words
}

// Stats returns a snapshot of the cost counters.
func (m *Machine) Stats() Stats {
	return Stats{
		Steps:    m.steps.Load(),
		Work:     m.work.Load(),
		MaxProcs: m.maxProcs.Load(),
		Space:    m.space.Load(),
		MaxSpace: m.maxSpace.Load(),
	}
}

// Reset zeroes all counters; the worker pool size is kept.
func (m *Machine) Reset() {
	m.steps.Store(0)
	m.work.Store(0)
	m.maxProcs.Store(0)
	m.space.Store(0)
	m.maxSpace.Store(0)
}
