package pramcc

import (
	"fmt"
	"sync"
	"time"

	"repro/graph"
	"repro/internal/incremental"
)

// Incremental is the streaming connected-components handle: a live
// labeling over a fixed vertex set that absorbs edges in batches and
// answers component queries between (or during) batches without ever
// recomputing from scratch. It is backed by the lock-free concurrent
// union-find of internal/incremental, the engine behind
// BackendIncremental.
//
// Concurrency contract: writers (AddEdges, Close) serialize on an
// internal mutex, so calling them from multiple goroutines is safe —
// batches are simply applied one at a time, and Close is idempotent
// even when racing AddEdges. The query methods (SameComponent,
// ComponentCount, Labels, BatchCount, EdgeCount) never take the lock:
// they are safe to call concurrently with an in-flight AddEdges and
// observe the snapshot of the last completed batch, never a
// half-ingested one.
type Incremental struct {
	mu     sync.Mutex // guards eng writer ops + closed
	eng    *incremental.Engine
	closed bool
}

// BatchStats reports one AddEdges call.
type BatchStats struct {
	Batch      int           // 1-based index of this batch
	Edges      int           // edges in this batch
	TotalEdges int64         // edges ingested across all batches
	Components int           // component count after this batch
	Wall       time.Duration // measured ingestion time of this batch
}

// NewIncremental returns a streaming handle over n isolated vertices.
// Only WithWorkers is consulted among the options; the
// engine has no randomness and no model-cost accounting. Close must be
// called to release the worker pool.
func NewIncremental(n int, opts ...Option) (*Incremental, error) {
	if n < 0 {
		return nil, fmt.Errorf("pramcc: negative vertex count %d", n)
	}
	c := apply(opts)
	return &Incremental{eng: incremental.New(n, incremental.Options{Workers: c.workers})}, nil
}

// AddEdges ingests one batch of undirected edges {v,w} and returns the
// batch's statistics. Endpoints out of [0, N) are rejected before any
// edge of the batch is applied. AddEdges is the boxed-representation
// adapter; batches that already live in a Graph or an EdgeSpan should
// go through AddSpan, which reaches the union-find without copying or
// widening a single edge.
func (inc *Incremental) AddEdges(edges [][2]int) (BatchStats, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.closed {
		return BatchStats{}, fmt.Errorf("pramcc: AddEdges on closed Incremental")
	}
	start := time.Now()
	snap, err := inc.eng.AddEdges(edges)
	if err != nil {
		return BatchStats{}, fmt.Errorf("pramcc: %w", err)
	}
	return BatchStats{
		Batch:      snap.Batches,
		Edges:      len(edges),
		TotalEdges: snap.Edges,
		Components: snap.Components,
		Wall:       time.Since(start),
	}, nil
}

// AddSpan ingests one batch given as a columnar arc-pair span
// (graph.EdgeSpan — typically a SpanBatches slice of a Graph, a
// loader span, or graph.FromPairs output) and returns the batch's
// statistics. This is the zero-copy ingest path: the span's int32
// columns are sharded over the worker pool directly, so the whole
// replay layer between the span and the union-find performs no
// allocation and no per-edge conversion. Validation and snapshot
// semantics match AddEdges: a span with an endpoint out of [0, N) is
// rejected whole.
func (inc *Incremental) AddSpan(span graph.EdgeSpan) (BatchStats, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.closed {
		return BatchStats{}, fmt.Errorf("pramcc: AddSpan on closed Incremental")
	}
	start := time.Now()
	snap, err := inc.eng.AddSpan(span)
	if err != nil {
		return BatchStats{}, fmt.Errorf("pramcc: %w", err)
	}
	return BatchStats{
		Batch:      snap.Batches,
		Edges:      span.Len(),
		TotalEdges: snap.Edges,
		Components: snap.Components,
		Wall:       time.Since(start),
	}, nil
}

// SameComponent reports whether v and w are connected by the edges of
// all completed batches.
//
//pramcc:zeroalloc
func (inc *Incremental) SameComponent(v, w int) bool { return inc.eng.SameComponent(v, w) }

// ComponentCount returns the number of components as of the last
// completed batch (N before any batch).
//
//pramcc:zeroalloc
func (inc *Incremental) ComponentCount() int { return inc.eng.ComponentCount() }

// Labels returns a copy of the current flattened labeling: two
// vertices are in the same component iff their labels are equal, and
// each label is the minimum vertex id of its component — the same
// canonical labeling BackendNative produces.
func (inc *Incremental) Labels() []int32 {
	return inc.LabelsInto(nil)
}

// LabelsInto copies the current flattened labeling into dst, growing
// it only when its capacity is short, and returns the filled slice —
// the zero-allocation form of Labels for hot-path consumers polling
// the labeling between batches: pass the previous call's return value
// back in and steady state copies into the same buffer. The copy is
// snapshot-consistent (one atomic snapshot read, then a plain copy)
// and safe to call concurrently with an in-flight ingest, which it
// never observes half-done. A nil dst simply allocates.
//
//pramcc:zeroalloc
func (inc *Incremental) LabelsInto(dst []int32) []int32 {
	return labelsInto(dst, inc.eng.Snapshot().Labels)
}

// N returns the vertex count the handle was created with.
//
//pramcc:zeroalloc
func (inc *Incremental) N() int { return inc.eng.N() }

// BatchCount returns how many batches have been ingested.
func (inc *Incremental) BatchCount() int { return inc.eng.Batches() }

// EdgeCount returns the total number of edges ingested.
func (inc *Incremental) EdgeCount() int64 { return inc.eng.EdgesIngested() }

// Result converts the current snapshot into a Result, so streaming
// consumers can hand the labeling to code written against the one-shot
// API. Model-only Stats fields are zero; Rounds is the batch count.
func (inc *Incremental) Result() *Result {
	s := inc.eng.Snapshot()
	labels := make([]int32, len(s.Labels))
	copy(labels, s.Labels)
	return &Result{
		Labels:        labels,
		NumComponents: s.Components,
		Stats: Stats{
			Backend: BackendIncremental,
			Workers: inc.eng.Workers(),
			Rounds:  s.Batches,
		},
	}
}

// Close releases the engine's worker pool. Queries remain valid on the
// last snapshot; further AddEdges calls return an error. Close is
// idempotent and goroutine-safe: it may race other Close or AddEdges
// calls freely (an in-flight batch completes before the pool is torn
// down).
func (inc *Incremental) Close() {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if !inc.closed {
		inc.closed = true
		inc.eng.Close()
	}
}
