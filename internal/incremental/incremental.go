// Package incremental is the fast execution backend: a concurrent
// union-find engine that either solves a whole graph one-shot into a
// caller's buffer (Run) or maintains a live component labeling while
// edges arrive in batches (AddSpan), so component queries stay fresh
// without recomputing from scratch on every update.
//
// The data structure is a lock-free disjoint-set forest (Jayanti–
// Tarjan style): parents are updated only with compare-and-swap,
// roots are linked by index (the larger root is CASed under the
// smaller), and finds do path splitting (each visited node is CASed
// from its parent to its grandparent). Three invariants make every
// interleaving safe:
//
//  1. parent[x] ≤ x always — links attach larger roots under smaller
//     ones and splitting replaces a parent with an ancestor, so parent
//     chains strictly decrease and can never form a cycle;
//  2. a link CAS succeeds only while the target is still a root, so a
//     lost race just means someone else linked first and the union
//     retries from the new roots;
//  3. parent[x] always names a vertex of x's component, so no CAS can
//     merge components that share no edge.
//
// Every sweep is sharded over the locality-aware grain-claim scheduler
// in internal/pool (contiguous chunks claimed off per-worker range
// cursors, with stealing after a worker's sticky home range is
// exhausted), and one union chunk body serves both paths. After the
// pool barrier at the end of a union sweep, every component is a
// single tree whose root is the minimum vertex id of the component,
// whatever the diameter, so a flatten sweep yields the canonical
// minimum-id labeling.
//
// Run is the one-shot solve: the caller's buffer starts as the
// identity and is itself the forest, one union sweep links every edge,
// and one flatten sweep stores each vertex's root into its own slot.
// It never touches the live forest or the published snapshot.
//
// The streaming path unions each batch into the engine's own forest
// and flattens it into a fresh labels slice published via an atomic
// pointer. A batch therefore costs Θ(batch) near-constant-time unions
// plus a Θ(n) flatten-and-publish pass: the per-update price of
// snapshot-consistent O(1) queries. What streaming saves over
// recompute-per-batch is the union work over the whole edge set, not
// the per-vertex pass. Queries (SameComponent, ComponentCount,
// Snapshot) read whichever snapshot is currently published, so they
// are safe to call concurrently with an in-flight AddSpan and always
// observe a consistent batch boundary, never a half-ingested batch.
// Writers — AddSpan, AddGraph, Grow, Reset, RestoreLabels and Run —
// must be called from one goroutine at a time.
package incremental

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/obs"
	"repro/internal/pool"
)

// Options configures an engine.
type Options struct {
	// Workers is the goroutine count of the batch pool; 0 selects
	// GOMAXPROCS.
	Workers int
}

// Snapshot is a consistent view of the labeling as of a batch
// boundary. Labels is shared and must not be modified.
type Snapshot struct {
	// Labels assigns every vertex its component representative: the
	// minimum vertex id of the component.
	Labels []int32
	// Components is the number of distinct labels.
	Components int
	// Batches is how many batches had been ingested when this
	// snapshot was taken.
	Batches int
	// Edges is the total number of edges ingested across all batches.
	Edges int64
}

// Engine is a concurrent union-find computing connected components
// one-shot (Run) or maintaining them under streaming edge batches.
// Queries may run concurrently with one writer call; the writers
// themselves are single-goroutine.
type Engine struct {
	n      int
	parent []int32 // CAS-only disjoint-set forest, parent[x] <= x
	pool   *pool.Pool
	snap   atomic.Pointer[Snapshot]

	batches int
	edges   int64

	// Sweep state, written by the single writer between pool barriers
	// only. The chunk bodies are bound once at construction so neither
	// a steady-state batch nor a Run allocates: unionChunk links the
	// even arcs of [sweepU, sweepV] in forest — the live parent forest
	// on ingest, the caller's buffer on Run — flattenChunk stores each
	// vertex's root of forest into its own slot (Run), and pubChunk
	// flattens parent into pubLabels (publish). The claim cursors live
	// in the scheduler.
	sweepCtx       context.Context
	sweepU, sweepV []int32
	forest         []int32
	unionChunk     func(worker, lo, hi int) bool
	flattenChunk   func(worker, lo, hi int) bool

	pubLabels []int32
	pubRoots  atomic.Int64
	pubChunk  func(worker, lo, hi int) bool
}

// New returns an engine over n isolated vertices with a live worker
// pool. Close must be called to release the pool's goroutines.
func New(n int, opt Options) *Engine {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{pool: pool.New(workers)}
	e.unionChunk = e.unionChunkBody
	e.flattenChunk = e.flattenChunkBody
	e.pubChunk = e.pubChunkBody
	e.Reset(n)
	return e
}

// Reset discards the ingested state and re-initialises the engine over
// n isolated vertices, reusing the parent buffer (and keeping the
// worker pool alive) when capacity allows. It publishes a fresh
// identity snapshot; snapshots handed out earlier stay valid. Reset is
// a writer operation: it must not race AddGraph/AddSpan.
func (e *Engine) Reset(n int) {
	if cap(e.parent) >= n {
		e.parent = e.parent[:n]
	} else {
		e.parent = make([]int32, n)
	}
	e.n = n
	labels := make([]int32, n)
	for i := range labels {
		e.parent[i] = int32(i)
		labels[i] = int32(i)
	}
	e.batches, e.edges = 0, 0
	e.snap.Store(&Snapshot{Labels: labels, Components: n})
}

// RestoreLabels discards the ingested state and re-initialises the
// forest to the exact components of a previously published labeling,
// republishing it as the current snapshot. labels must be a canonical
// engine labeling (labels[v] is the minimum vertex id of v's
// component), which makes it directly usable as a depth-one parent
// forest. This is the recovery path for a writer whose destructive
// rebuild (Reset + re-ingest) was cancelled midway: the live labeling
// snaps back to the snapshot the readers never stopped seeing. Writer
// operation, like Reset.
func (e *Engine) RestoreLabels(labels []int32) {
	n := len(labels)
	if cap(e.parent) >= n {
		e.parent = e.parent[:n]
	} else {
		e.parent = make([]int32, n)
	}
	e.n = n
	copy(e.parent, labels)
	snap := make([]int32, n)
	copy(snap, labels)
	comps := 0
	for v, l := range labels {
		if int(l) == v {
			comps++
		}
	}
	e.batches, e.edges = 0, 0
	e.snap.Store(&Snapshot{Labels: snap, Components: comps})
}

// Grow extends the vertex set to n, preserving every component built
// so far; the new vertices are isolated. A no-op when n ≤ N(). Grow is
// a writer operation like AddSpan; the published snapshot is not
// advanced (the new vertices appear in the snapshot after the next
// completed batch).
func (e *Engine) Grow(n int) {
	if n <= e.n {
		return
	}
	if cap(e.parent) >= n {
		e.parent = e.parent[:n]
	} else {
		parent := make([]int32, n)
		copy(parent, e.parent)
		e.parent = parent
	}
	for v := e.n; v < n; v++ {
		e.parent[v] = int32(v)
	}
	e.n = n
}

// Workers returns the resolved worker count of the batch pool.
func (e *Engine) Workers() int { return e.pool.Workers() }

// N returns the vertex count.
//
//pramcc:zeroalloc
func (e *Engine) N() int { return e.n }

// Close releases the worker pool. The engine's snapshot remains
// queryable; further AddGraph/AddSpan calls are invalid.
func (e *Engine) Close() { e.pool.Close() }

// Snapshot returns the labeling as of the last completed batch.
//
//pramcc:zeroalloc
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// SameComponent reports whether v and w are connected by the edges
// ingested up to the last completed batch.
//
//pramcc:zeroalloc
func (e *Engine) SameComponent(v, w int) bool {
	s := e.snap.Load()
	return s.Labels[v] == s.Labels[w]
}

// ComponentCount returns the number of components as of the last
// completed batch.
//
//pramcc:zeroalloc
func (e *Engine) ComponentCount() int { return e.snap.Load().Components }

// Batches returns how many batches have been ingested.
func (e *Engine) Batches() int { return e.snap.Load().Batches }

// EdgesIngested returns the total edge count across all batches.
func (e *Engine) EdgesIngested() int64 { return e.snap.Load().Edges }

// AddGraph ingests every edge of g as one batch and publishes it. g
// must have the engine's vertex count; its edges are in range by the
// graph package's own construction-time validation, so the batch rides
// the span path without a validation pass.
func (e *Engine) AddGraph(g *graph.Graph) *Snapshot {
	if g.N != e.n {
		panic("incremental: graph vertex count mismatch")
	}
	_ = e.ingestSpan(context.Background(), g.Span()) // never cancelled
	return e.publish(int64(g.NumEdges()))
}

// Run computes the connected components of g one-shot into labels,
// which must have length g.N; on return labels[v] is the minimum
// vertex id of v's component. The buffer starts as the identity and
// is itself the forest: one union sweep over the edges, then one
// flatten sweep over the vertices. Run returns the number of rounds
// run: 1 for the one union-find pass, or 0 when g has no edges.
//
// Run never touches the live forest or the published snapshot, so it
// may be interleaved with streaming ingest on the same engine (from
// the one writer goroutine). ctx is checked once per claimed chunk of
// either sweep: when it is cancelled or past its deadline, Run returns
// ctx.Err() within one chunk per worker, and labels holds a partial
// labeling the caller must discard.
//
//pramcc:zeroalloc
func (e *Engine) Run(ctx context.Context, g *graph.Graph, labels []int32) (int, error) {
	if len(labels) != g.N {
		panic("incremental: label buffer length does not match g.N")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range labels {
		labels[i] = int32(i)
	}
	if g.NumEdges() == 0 {
		return 0, ctx.Err()
	}
	e.sweepCtx, e.forest, e.sweepU, e.sweepV = ctx, labels, g.U, g.V
	e.pool.Sharded(g.NumEdges(), 0, e.unionChunk)
	if ctx.Err() == nil {
		e.pool.Sharded(g.N, 0, e.flattenChunk)
	}
	e.sweepCtx, e.forest, e.sweepU, e.sweepV = nil, nil, nil, nil
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return 1, nil
}

// AddSpan ingests one batch given as a columnar arc-pair span and
// publishes a new snapshot. The span's columns are sharded over the
// worker pool as-is, so a batch sliced from a Graph (SpanBatches) or a
// loader span reaches the union-find with no copy, no boxing, and no
// per-edge allocation. A span with an even-arc endpoint outside
// [0, n) is rejected whole — the error names the offending edge and
// nothing is applied.
func (e *Engine) AddSpan(span graph.EdgeSpan) (*Snapshot, error) {
	return e.AddSpanContext(context.Background(), span)
}

// AddSpanContext is AddSpan with cancellation: ctx is checked before
// any work and at every chunk boundary of the sharded ingest. On
// cancellation no snapshot is published and ctx.Err() is returned —
// queries keep observing the last completed batch, never a partial
// one. The cancelled batch may have been partially unioned into the
// (unpublished) forest; because unions are idempotent, re-submitting
// the same span after cancellation yields exactly the labeling the
// uncancelled call would have produced.
func (e *Engine) AddSpanContext(ctx context.Context, span graph.EdgeSpan) (*Snapshot, error) {
	if err := e.validateSpan(span); err != nil {
		return nil, err
	}
	if err := e.ingestSpan(ctx, span); err != nil {
		return nil, err
	}
	return e.publish(int64(span.Len())), nil
}

// validateSpan rejects spans the forest cannot absorb: mismatched or
// odd columns, and even-arc endpoints outside [0, n). Mirror arcs are
// not consulted — ingest reads only the even arcs, exactly as the
// graph path does — so their consistency is the caller's contract,
// not a correctness requirement here.
func (e *Engine) validateSpan(span graph.EdgeSpan) error {
	if len(span.U) != len(span.V) {
		return fmt.Errorf("incremental: span columns have different lengths %d, %d", len(span.U), len(span.V))
	}
	if len(span.U)%2 != 0 {
		return fmt.Errorf("incremental: span has odd arc count %d, arcs must come in mirror pairs", len(span.U))
	}
	n := uint32(e.n)
	for i := 0; i < len(span.U); i += 2 {
		if uint32(span.U[i]) >= n || uint32(span.V[i]) >= n {
			return fmt.Errorf("incremental: span edge %d = {%d,%d} out of range [0,%d)", i/2, span.U[i], span.V[i], e.n)
		}
	}
	return nil
}

// ingestSpan shards the span's edge range over the scheduler through
// the pre-bound unionChunk into the live forest, so a steady-state
// batch performs zero allocations between validation and publish.
// Writer-only.
//
//pramcc:zeroalloc
func (e *Engine) ingestSpan(ctx context.Context, span graph.EdgeSpan) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if span.Len() == 0 {
		e.noteIngest(0, 0)
		return nil
	}
	emit := obs.Enabled()
	var start time.Time
	if emit {
		start = time.Now()
	}
	e.sweepCtx, e.forest, e.sweepU, e.sweepV = ctx, e.parent, span.U, span.V
	e.pool.Sharded(span.Len(), 0, e.unionChunk)
	e.sweepCtx, e.forest, e.sweepU, e.sweepV = nil, nil, nil, nil
	if err := ctx.Err(); err != nil {
		e.noteIngestErr(err)
		return err
	}
	e.noteIngest(span.Len(), elapsedIf(emit, start))
	return nil
}

// noteIngest emits the batch-boundary event when a sink is attached.
// The envelope (with its measures map) is built only then — this
// function runs inside the region TestSpanIngestZeroAlloc holds at
// zero allocations.
//
//pramcc:zeroalloc
func (e *Engine) noteIngest(edges int, d time.Duration) {
	if obs.Enabled() {
		obs.Emit(obs.Event{Source: "incremental", Category: "engine",
			Name: "batch", Status: obs.StatusOK,
			DurationMS: float64(d.Nanoseconds()) / 1e6,
			Measures:   map[string]float64{"edges": float64(edges)}})
	}
}

// noteIngestErr emits the cancelled-batch event (nothing was
// published).
//
//pramcc:zeroalloc
func (e *Engine) noteIngestErr(err error) {
	if obs.Enabled() {
		status := obs.StatusError
		if err == context.Canceled || err == context.DeadlineExceeded {
			status = obs.StatusCancelled
		}
		obs.Emit(obs.Event{Source: "incremental", Category: "engine",
			Name: "batch", Status: status})
	}
}

// elapsedIf returns the elapsed time since start when timing was
// enabled, 0 otherwise (start is the zero Time then).
//
//pramcc:zeroalloc
func elapsedIf(enabled bool, start time.Time) time.Duration {
	if !enabled {
		return 0
	}
	return time.Since(start)
}

// unionChunkBody links the two roots of every even arc of one claimed
// edge chunk in forest, straight out of the sweep columns: arcs come in
// mirror pairs, so arc 2i covers edge i. It is the one union body of
// both the streaming ingest and Run. The ctx check per chunk is the
// cancellation contract: returning false stops this worker's claim
// loop, and the other workers observe the same ctx on their own next
// chunk.
//
//pramcc:zeroalloc
func (e *Engine) unionChunkBody(_, lo, hi int) bool {
	if e.sweepCtx.Err() != nil {
		return false
	}
	u, v, forest := e.sweepU, e.sweepV, e.forest
	for i := lo; i < hi; i++ {
		Union(forest, u[2*i], v[2*i])
	}
	return true
}

// flattenChunkBody stores the root of every vertex in [lo, hi) into
// its own slot of forest — Run's flatten, in place. It runs after the
// union sweep's barrier, so roots are final: concurrent finds only
// shorten paths.
//
//pramcc:zeroalloc
func (e *Engine) flattenChunkBody(_, lo, hi int) bool {
	if e.sweepCtx.Err() != nil {
		return false
	}
	forest := e.forest
	for v := lo; v < hi; v++ {
		atomic.StoreInt32(&forest[v], Find(forest, int32(v)))
	}
	return true
}

// publish flattens the forest into a fresh snapshot. It runs after the
// ingest barrier, so every tree is stable: finds during the flatten
// only compress paths, never change roots. The labels slice and the
// Snapshot itself are the only allocations of a whole batch on the
// span path — inherent to immutable snapshot publication, since
// earlier snapshots stay queryable forever.
func (e *Engine) publish(edges int64) *Snapshot {
	e.batches++
	e.edges += edges
	labels := make([]int32, e.n)
	e.pubLabels = labels
	e.pubRoots.Store(0)
	e.pool.Sharded(e.n, 0, e.pubChunk)
	e.pubLabels = nil
	s := &Snapshot{
		Labels:     labels,
		Components: int(e.pubRoots.Load()),
		Batches:    e.batches,
		Edges:      e.edges,
	}
	e.snap.Store(s)
	return s
}

// pubChunkBody flattens one claimed vertex chunk: resolve each
// vertex's root into the labels being published and count the roots
// seen.
//
//pramcc:zeroalloc
func (e *Engine) pubChunkBody(_, lo, hi int) bool {
	labels := e.pubLabels
	local := int64(0)
	for v := lo; v < hi; v++ {
		r := Find(e.parent, int32(v))
		labels[v] = r
		if r == int32(v) {
			local++
		}
	}
	if local != 0 {
		e.pubRoots.Add(local)
	}
	return true
}

// Find returns the root of x in the CAS-only forest parent, with path
// splitting: each visited node is CASed from its parent to its
// grandparent. A failed CAS means a racing find already improved the
// pointer; either way progress is monotone because parents strictly
// decrease along every path. Safe to call concurrently with Union and
// other Finds on the same forest.
//
//pramcc:zeroalloc
func Find(parent []int32, x int32) int32 {
	for {
		p := atomic.LoadInt32(&parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&parent[p])
		if gp == p {
			return p
		}
		atomic.CompareAndSwapInt32(&parent[x], p, gp)
		x = gp
	}
}

// Union links the roots of u and v in the forest parent by index: the
// larger root is CASed under the smaller, which preserves
// parent[x] ≤ x and therefore acyclicity on every interleaving. A lost
// race means another worker linked one of the roots first; retry from
// the new roots. On return u and v share a root.
//
//pramcc:zeroalloc
func Union(parent []int32, u, v int32) {
	for {
		ru, rv := Find(parent, u), Find(parent, v)
		if ru == rv {
			return
		}
		if ru > rv {
			ru, rv = rv, ru
		}
		if atomic.CompareAndSwapInt32(&parent[rv], rv, ru) {
			return
		}
		u, v = ru, rv
	}
}
