package pramcc

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/graph"
	"repro/internal/ccbase"
	"repro/internal/pram"
	"repro/internal/spanning"
)

// ErrSolverClosed is returned by Solve/SpanningForest on a closed
// Solver (and by Service methods on a closed Service).
var ErrSolverClosed = errors.New("pramcc: solver is closed")

// Solver is the long-lived form of the one-shot entry points: a handle
// that owns its execution engine — the worker pool and the pre-sized
// scratch and label buffers — so that repeated solves amortize every
// allocation and engine construction across calls. On the fast
// backend a steady-state Solve on same-sized graphs allocates nothing
// at all (see BenchmarkSolverReuse).
//
// The configuration (backend, workers, seed, algorithm parameters) is
// fixed at NewSolver time. Solve honours its context at every round
// (simulated) or claimed chunk of a sweep (incremental): a cancelled or
// expired context makes Solve return ctx.Err() promptly, with no
// partial result; an already-cancelled context fails fast before any
// work.
//
// Solve and SpanningForest serialize on an internal mutex, so racing
// calls cannot corrupt the engine — but the *Result returned by Solve
// aliases solver-owned buffers and is rewritten by the next Solve on
// the same Solver. A Solver is therefore single-consumer: one
// goroutine solves and reads the result before solving again; results
// retained across solves must be copied. For serving results to many
// goroutines while recomputing, use Service, which publishes immutable
// snapshots for exactly that purpose. Close releases the engine's
// worker pool; it is idempotent, and a previously returned (copied)
// Result remains valid after it.
type Solver struct {
	mu     sync.Mutex
	cfg    config
	eng    engine
	closed bool

	// Reusable per-solve state, all guarded by mu.
	out  solveOutput
	seen []bool // countLabels scratch
	res  Result // the returned Result, rewritten by every Solve
}

// NewSolver builds a Solver from the same options the free functions
// take. WithBackend selects the engine (default BackendSimulated);
// WithWorkers sizes its pool once, at construction. An unregistered
// backend is an error naming the registered ones.
func NewSolver(opts ...Option) (*Solver, error) {
	return newSolverFromConfig(apply(opts))
}

func newSolverFromConfig(c config) (*Solver, error) {
	info, ok := lookupBackend(c.backend)
	if !ok {
		return nil, errUnknownBackend(int(c.backend))
	}
	return &Solver{cfg: c, eng: info.newEngine(&c)}, nil
}

// Backend returns the execution backend this Solver was built with.
func (s *Solver) Backend() Backend { return s.cfg.backend }

// Solve computes the connected components of g on the Solver's
// backend. See the Solver doc for the buffer-ownership and context
// contract.
func (s *Solver) Solve(ctx context.Context, g *graph.Graph) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solveLocked(ctx, g, &s.cfg, false)
}

// solveLocked runs one solve with s.mu held. c carries the per-call
// parameters (the Solver's own config, or a compatibility wrapper's
// per-call options). When copyOut is set the labels are copied into a
// fresh Result — the free functions' historical contract — instead of
// aliasing the reusable buffers.
func (s *Solver) solveLocked(ctx context.Context, g *graph.Graph, c *config, copyOut bool) (*Result, error) {
	if s.closed {
		return nil, ErrSolverClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Fail fast: an already-cancelled context does no work at all.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.eng.solve(ctx, g, c, &s.out); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	// Wall is fixed before the O(n) label count below, so the counting
	// pass is never charged to the run (the E11/E12 discipline).
	s.out.stats.Wall = wall
	num := s.countLabels(s.out.labels)
	if copyOut {
		labels := make([]int32, len(s.out.labels))
		copy(labels, s.out.labels)
		// Cache hygiene for the shared-engine path: the process-wide
		// solvers behind the free functions live forever, so a one-off
		// giant graph must not pin its Θ(n) scratch in them for the
		// rest of the process. Oversized buffers are dropped here and
		// reallocated right-sized by the next solve; steady-state
		// same-scale workloads keep full reuse. (A caller-owned Solver
		// never does this — its buffer lifetime is Close.)
		if cap(s.out.labels) > maxRetainedScratch && cap(s.out.labels) > 4*g.N {
			s.out.labels = nil
			s.seen = nil
		}
		return &Result{Labels: labels, NumComponents: num, Stats: s.out.stats}, nil
	}
	s.res.Labels = s.out.labels
	s.res.NumComponents = num
	s.res.Stats = s.out.stats
	return &s.res, nil
}

// countLabels is the O(n) distinct-label count over a reusable seen
// buffer — the allocation-free twin of the package-level countLabels.
func (s *Solver) countLabels(labels []int32) int {
	n := len(labels)
	if cap(s.seen) >= n {
		s.seen = s.seen[:n]
		clear(s.seen)
	} else {
		s.seen = make([]bool, n)
	}
	count := 0
	for _, l := range labels {
		if uint(l) >= uint(n) {
			return countLabelsGeneric(labels)
		}
		if !s.seen[l] {
			s.seen[l] = true
			count++
		}
	}
	return count
}

// SpanningForest computes a spanning forest of g with the Theorem 2
// algorithm, honouring ctx at every phase boundary. The spanning
// forest algorithm exists only on the PRAM simulator, so it runs there
// whatever the Solver's backend; the Solver contributes its seed,
// worker count, and phase-cap options. Unlike Solve, the returned
// ForestResult is freshly allocated and stays valid across calls.
func (s *Solver) SpanningForest(ctx context.Context, g *graph.Graph) (*ForestResult, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSolverClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return spanningForest(ctx, g, s.cfg)
}

// spanningForest is the shared implementation behind the free
// SpanningForest function and Solver.SpanningForest.
func spanningForest(ctx context.Context, g *graph.Graph, c config) (*ForestResult, error) {
	m := pram.New(1)
	p := spanning.DefaultParams(c.seed)
	if c.maxPhases > 0 {
		p.MaxPhases = c.maxPhases
	}
	if c.combining {
		p.Mode = ccbase.ModeCombining
	}
	p.Ctx = ctx
	start := time.Now()
	res := spanning.Run(m, g, p)
	wall := time.Since(start)
	if res.CtxErr != nil {
		return nil, res.CtxErr
	}
	// The columnar span is the canonical output; the boxed Edges pairs
	// are derived from it for compatibility.
	span := res.ForestSpan(g)
	out := &ForestResult{
		Result: *newResult(wall, res.Labels, Stats{
			Backend:       BackendSimulated,
			Workers:       1,
			Rounds:        res.Phases,
			PRAMSteps:     res.Stats.Steps,
			Work:          res.Stats.Work,
			MaxProcessors: res.Stats.MaxProcs,
			PeakSpace:     res.Stats.MaxSpace,
			Prep:          res.Prep,
			Failed:        res.Failed,
		}),
		EdgeIndices: res.ForestEdges,
		Edges:       span.Pairs(),
		Span:        span,
	}
	if res.Failed {
		return out, errPhaseCap(res.Phases)
	}
	return out, nil
}

// Close releases the engine's resources (worker pools). Idempotent;
// subsequent Solve calls return ErrSolverClosed.
func (s *Solver) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.eng.close()
	}
}

// ---- the shared engines behind the compatibility wrappers ----

// engineKey identifies a reusable shared engine: everything an engine's
// construction depends on. Per-call parameters (seed, round caps, …)
// travel with each solve instead.
type engineKey struct {
	backend Backend
	workers int
}

var (
	sharedMu      sync.Mutex
	sharedSolvers = map[engineKey]*Solver{}
)

// sharedSolverCap bounds the cache of shared engines (and their worker
// pools). Beyond it — dozens of distinct (backend, workers) pairs, a
// fuzzing scenario, not a production one — calls fall back to a
// one-shot engine, which is exactly the pre-Solver behavior.
const sharedSolverCap = 64

// maxRetainedScratch is the label-buffer capacity (in entries) above
// which a shared solver releases its scratch after a copy-out solve
// instead of retaining it indefinitely: 1<<22 entries ≈ 16 MB of
// labels plus 4 MB of seen bits per cached engine.
const maxRetainedScratch = 1 << 22

// sharedSolve is the engine room of the free functions: it routes the
// call through a process-wide Solver for (backend, workers), so
// steady-state callers of Components never rebuild an engine or a
// worker pool, and copies the labels out so the returned Result owns
// its memory (the historical free-function contract). When the shared
// engine is busy on another goroutine the call falls back to a
// transient engine rather than serializing — concurrent Components
// calls stay concurrent.
func sharedSolve(ctx context.Context, g *graph.Graph, c config) (*Result, error) {
	if err := validate(g); err != nil {
		return nil, err
	}
	key := engineKey{backend: c.backend, workers: c.workers}
	sharedMu.Lock()
	s, ok := sharedSolvers[key]
	if !ok {
		if _, registered := lookupBackend(c.backend); !registered {
			sharedMu.Unlock()
			return nil, errUnknownBackend(int(c.backend))
		}
		if len(sharedSolvers) < sharedSolverCap {
			var err error
			s, err = newSolverFromConfig(c)
			if err != nil {
				sharedMu.Unlock()
				return nil, err
			}
			sharedSolvers[key] = s
		}
	}
	sharedMu.Unlock()
	if s != nil && s.mu.TryLock() {
		defer s.mu.Unlock()
		return s.solveLocked(ctx, g, &c, true)
	}
	t, err := newSolverFromConfig(c)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.solveLocked(ctx, g, &c, true)
}
