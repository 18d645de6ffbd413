// Package pram simulates the ARBITRARY CRCW PRAM of the paper (§1.1):
// a set of processors with O(1) private memory each, a large common
// memory, and synchronous constant-time steps. Any number of processors
// may read or write the same common-memory cell concurrently; when
// several write the same cell in one step, an arbitrary one succeeds.
//
// The simulator runs one fixed schedule: Machine.Step(procs, f) runs
// one PRAM time unit by evaluating f(0), f(1), …, f(procs-1) in index
// order on the calling goroutine. When several processors write the
// same cell in one step, the last writer in index order wins, which is
// a legal ARBITRARY resolution; a processor can also read writes made
// earlier in the same step. Because the schedule does not depend on
// the host, a run's labels and model costs are a function of its input
// and seed alone. Since nothing runs concurrently, common memory is
// plain Go memory: the cell helpers (Store32, MaxCombine64, …) are
// ordinary loads and stores that mark the model's concurrent-write
// sites, and a step inlines to the host loop it describes. The machine
// accounts simulated time (steps), per-step processor usage, and total
// work, so experiments report model costs rather than host wall clock.
package pram

import "fmt"

// Machine is an ARBITRARY CRCW PRAM simulator with cost accounting.
// The zero value is not usable; call New. A Machine runs every step on
// the calling goroutine and is not safe for concurrent use.
type Machine struct {
	steps    int64 // simulated PRAM time units
	work     int64 // sum over steps of processors used
	maxProcs int64 // maximum processors used in a single step
	space    int64 // currently allocated common-memory words
	maxSpace int64 // peak allocated common-memory words
}

// New returns a machine. Its argument is ignored: every machine runs
// processors 0, 1, 2, … in order on the calling goroutine.
func New(int) *Machine { return &Machine{} }

// Step executes one PRAM time unit with procs processors: f(i) is
// invoked exactly once for each i in [0, procs), in index order, before
// Step returns. Charging: one time unit, procs work. Step, StepCost and
// StepN are small enough for the compiler to inline, so a step costs
// what the equivalent host loop costs; scripts/check_inline.sh guards
// that.
func (m *Machine) Step(procs int, f func(i int)) {
	m.StepCost(1, procs, f)
}

// StepCost is Step but charges cost time units (used where the paper
// charges a known super-constant cost for a black-box primitive, e.g.
// approximate compaction's O(log* n)).
func (m *Machine) StepCost(cost, procs int, f func(i int)) {
	if cost < 0 || procs < 0 {
		panic(negativeStep{cost, procs})
	}
	m.charge(int64(cost), int64(procs))
	for i := 0; i < procs; i++ {
		f(i)
	}
}

// StepN executes one PRAM time unit whose model cost is chargedProcs
// processors, while the host realizes it as iters loop iterations
// (e.g. the paper runs one processor per table-cell pair, but the host
// iterates per table owner). f(i) is invoked once per i in [0, iters),
// in index order.
func (m *Machine) StepN(chargedProcs, iters int, f func(i int)) {
	m.charge(1, int64(chargedProcs))
	for i := 0; i < iters; i++ {
		f(i)
	}
}

// charge accounts cost time units of procs processors each.
func (m *Machine) charge(cost, procs int64) {
	m.steps += cost
	m.work += cost * procs
	if procs > m.maxProcs {
		m.maxProcs = procs
	}
}

// negativeStep is the panic value of a step given a negative cost or
// processor count. Its message is formatted out of line, in Error, so
// that the steps raising it stay inlinable.
type negativeStep struct{ cost, procs int }

func (e negativeStep) Error() string {
	return fmt.Sprintf("pram: negative cost %d or procs %d", e.cost, e.procs)
}

// ChargeSteps adds time units without running processors. Used when an
// algorithm performs a constant number of bookkeeping sub-steps that
// the host executes inline.
func (m *Machine) ChargeSteps(n int) { m.steps += int64(n) }

// Alloc records the allocation of words of common memory (a processor
// block in the paper's terminology) and updates the peak.
func (m *Machine) Alloc(words int) {
	m.space += int64(words)
	if m.space > m.maxSpace {
		m.maxSpace = m.space
	}
}

// Free records the release of words of common memory.
func (m *Machine) Free(words int) { m.space -= int64(words) }

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
		Steps:    m.steps,
		Work:     m.work,
		MaxProcs: m.maxProcs,
		Space:    m.space,
		MaxSpace: m.maxSpace,
	}
}

// Reset zeroes all counters.
func (m *Machine) Reset() { *m = Machine{} }
