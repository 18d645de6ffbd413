// Package native is the shared-memory execution backend: connected
// components computed directly on goroutines with atomic
// compare-and-swap on the label array, aimed at wall-clock speed
// rather than model-cost accounting.
//
// A solve is one concurrent union-find pass. The label array starts as
// the identity and is used as a lock-free disjoint-set forest: one
// sweep over the edges links each edge's two roots by index minimum
// (incremental.Union — the larger root is CASed under the smaller,
// retrying from the fresh roots on contention), then one sweep over
// the vertices stores each vertex's root (incremental.Find, with path
// splitting) into its own slot. After the edge sweep's barrier every
// component is one tree rooted at its minimum vertex id, whatever the
// diameter, so the flatten leaves labels[v] equal to that minimum —
// the same canonical labeling the incremental engine publishes. The
// find/link primitives and the three invariants that make every
// interleaving safe live in internal/incremental; this package only
// drives them over a whole graph at once. The paper's ARBITRARY-CRCW
// round structure lives on the simulator backends, not here.
//
// Both sweeps are sharded over the locality-aware grain-claim
// scheduler in internal/pool: each worker sweeps a sticky contiguous
// home range first and steals from other ranges only after exhausting
// it. ctx is checked once per claimed chunk.
//
// The Engine type is the long-lived form: it owns the worker pool, so
// repeated Run calls perform zero allocations — the shape
// pramcc.Solver builds on. Components remains the one-shot convenience
// wrapper.
package native

import (
	"context"
	"runtime"
	"sync/atomic"

	"repro/graph"
	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/pool"
)

// mRuns counts completed runs, process-wide. Counted once per run, so
// the sweeps pay nothing for it.
var mRuns = obs.Default.Counter("pramcc_native_runs_total",
	"completed native-engine Run calls")

// Result is a component labeling with engine statistics. Unlike the
// simulated backends there are no model costs: only real quantities.
type Result struct {
	// Labels assigns every vertex a component representative: the
	// minimum vertex id of its component.
	Labels []int32
	// Rounds is 1 when the graph has an edge (the one union-find
	// pass), 0 otherwise.
	Rounds int
	// Workers is the resolved worker count that executed the run.
	Workers int
}

// Engine is a reusable shared-memory solver. It owns a worker pool
// spawned once at construction; Run may be called any number of times
// (from one goroutine at a time) and allocates nothing itself — the
// caller provides the label buffer. Close releases the pool.
type Engine struct {
	pool *pool.Pool

	// Per-run state, written by Run between pool barriers only.
	ctx    context.Context
	g      *graph.Graph
	labels []int32

	// The sweep bodies are bound once at construction so Run does not
	// create a closure (and therefore does not allocate) per call.
	unionChunk, flattenChunk func(worker, lo, hi int) bool
}

// NewEngine spawns an engine with its worker pool; workers ≤ 0 selects
// GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{pool: pool.New(workers)}
	e.unionChunk = e.unionChunkBody
	e.flattenChunk = e.flattenChunkBody
	return e
}

// Workers returns the engine's resolved worker count.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Close releases the worker pool. Idempotent; the engine must be idle.
func (e *Engine) Close() { e.pool.Close() }

// Run computes the connected components of g into labels, which must
// have length g.N; on return labels[v] is the minimum vertex id of
// v's component. It returns the number of rounds run: 1 for the one
// union-find pass, or 0 when g has no edges or the run was cancelled.
//
// ctx is checked once per claimed chunk of either sweep: when it is
// cancelled or past its deadline, Run abandons the computation and
// returns ctx.Err() within one chunk per worker. The labels buffer
// then holds a partial labeling that the caller must discard.
//
// The returned labeling is exact on every interleaving: correctness
// depends only on the union-find invariants, not on scheduling.
//
//pramcc:zeroalloc
func (e *Engine) Run(ctx context.Context, g *graph.Graph, labels []int32) (int, error) {
	if len(labels) != g.N {
		panic("native: label buffer length does not match g.N")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range labels {
		labels[i] = int32(i)
	}
	if g.N == 0 || g.NumEdges() == 0 {
		return 0, ctx.Err()
	}
	e.ctx, e.g, e.labels = ctx, g, labels
	defer func() { e.ctx, e.g, e.labels = nil, nil, nil }()

	e.pool.Sharded(g.NumEdges(), 0, e.unionChunk)
	if ctx.Err() == nil {
		e.pool.Sharded(g.N, 0, e.flattenChunk)
	}
	if err := ctx.Err(); err != nil {
		// The envelope is built only when an operator attached a sink,
		// so the default path stays allocation-free.
		if obs.Enabled() {
			obs.Emit(obs.Event{Source: "native", Category: "engine",
				Name: "run", Status: obs.StatusCancelled})
		}
		return 0, err
	}
	mRuns.Inc()
	return 1, nil
}

// unionChunkBody links the two roots of every even arc in [lo, hi).
// Arcs come in mirror pairs, so arc 2i covers edge i. The ctx check per
// chunk is the cancellation contract: returning false stops this
// worker's claim loop.
//
//pramcc:zeroalloc
func (e *Engine) unionChunkBody(_, lo, hi int) bool {
	if e.ctx.Err() != nil {
		return false
	}
	u, v, labels := e.g.U, e.g.V, e.labels
	for i := lo; i < hi; i++ {
		incremental.Union(labels, u[2*i], v[2*i])
	}
	return true
}

// flattenChunkBody stores the root of every vertex in [lo, hi) into
// its own slot. It runs after the union sweep's barrier, so roots are
// final: concurrent finds only shorten paths.
//
//pramcc:zeroalloc
func (e *Engine) flattenChunkBody(_, lo, hi int) bool {
	if e.ctx.Err() != nil {
		return false
	}
	labels := e.labels
	for v := lo; v < hi; v++ {
		atomic.StoreInt32(&labels[v], incremental.Find(labels, int32(v)))
	}
	return true
}

// Components computes the connected components of g one-shot: a fresh
// engine (and worker pool) of the given worker count (≤ 0 selects
// GOMAXPROCS) is built and torn down around a single Run. Long-lived
// callers should hold an Engine (or a pramcc.Solver) to amortize that
// construction.
func Components(g *graph.Graph, workers int) *Result {
	e := NewEngine(workers)
	defer e.Close()
	labels := make([]int32, g.N)
	rounds, _ := e.Run(context.Background(), g, labels)
	return &Result{Labels: labels, Rounds: rounds, Workers: e.Workers()}
}
