// Package native is the former name of the one-shot fast engine. The
// engine is internal/incremental's: Engine.Run solves a whole graph
// into a caller's buffer on the same pool and union sweep that serve
// streaming ingest. Only the two names below remain, for callers
// written against this package.
package native

import "repro/internal/incremental"

// Engine is the fast union-find engine; Run is its one-shot solve.
type Engine = incremental.Engine

// NewEngine returns an engine with a worker pool of the given size
// (≤ 0 selects GOMAXPROCS). Close releases the pool.
func NewEngine(workers int) *Engine {
	return incremental.New(0, incremental.Options{Workers: workers})
}
