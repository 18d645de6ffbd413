// Package obs is the observability spine of the module: a structured
// JSON event envelope with a swappable sink, and a lock-free
// counter/gauge/histogram registry rendered in Prometheus text
// exposition format. Every layer of the stack — the worker pool, the
// three engines, the pramcc Service, and the ccserve ops binary —
// emits into this one surface instead of inventing its own.
//
// The package is built around one performance contract, pinned by
// TestSpanIngestZeroAlloc next to the ingest hot path: when no sink is
// attached, instrumentation is free. Counters and gauges are plain
// atomic adds (always on, allocation-free); event emission is gated on
// Enabled(), a single atomic pointer load, so instrumented code builds
// the envelope — the only allocating part — exclusively when an
// operator has opted in with SetSink. Metric registration happens once
// at package init; scraping snapshots the atomics without stopping
// writers.
//
// OPERATIONS.md documents the envelope schema field by field and every
// registered metric; scripts/check_docs.sh fails CI when a registered
// metric is missing from those docs.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Event is the structured envelope every emission uses — the schema is
// fixed so that any consumer (a log pipeline, jq, the E15 overhead
// experiment) can rely on the same six fields from every source.
type Event struct {
	// Source is the emitting subsystem: "simulated", "incremental",
	// "service", "ccserve".
	Source string `json:"source"`
	// Category groups events within a source: "engine" for
	// round/batch boundaries, "serve" for public API calls, "http"
	// for the ops front end.
	Category string `json:"category"`
	// Name is the specific boundary: "round", "batch", "update",
	// "ingest_span", "grow", "request".
	Name string `json:"name"`
	// Status is "ok", "error", or "cancelled".
	Status string `json:"status"`
	// DurationMS is the wall-clock duration of the unit the event
	// closes, in milliseconds (0 when the event has no duration).
	DurationMS float64 `json:"duration_ms"`
	// Measures carries event-specific numeric payloads (edge counts,
	// round indices, component counts); nil when there are none.
	Measures map[string]float64 `json:"measures,omitempty"`
}

// The Status values every emitter uses.
const (
	StatusOK        = "ok"
	StatusError     = "error"
	StatusCancelled = "cancelled"
)

// Sink consumes emitted events. Emit may be called concurrently from
// any goroutine; implementations serialize internally.
type Sink interface {
	Emit(Event)
}

// sink is the process-wide event sink. A pointer-to-interface so the
// no-sink check is one atomic pointer load against nil — the whole
// cost of instrumentation when observability is off.
var sink atomic.Pointer[Sink]

// SetSink installs s as the process-wide event sink (nil detaches,
// restoring the free no-op default). Emissions racing a SetSink go to
// whichever sink the atomic load observes.
func SetSink(s Sink) {
	if s == nil {
		sink.Store(nil)
		return
	}
	sink.Store(&s)
}

// Enabled reports whether a sink is attached. Instrumented code gates
// envelope construction on it so the disabled path allocates nothing:
//
//	if obs.Enabled() {
//		obs.Emit(obs.Event{...}) // built only when someone listens
//	}
//
//pramcc:zeroalloc
func Enabled() bool { return sink.Load() != nil }

// Emit delivers e to the attached sink, if any.
func Emit(e Event) {
	if p := sink.Load(); p != nil {
		(*p).Emit(e)
	}
}

// JSONSink writes one JSON object per event, newline-delimited, to an
// io.Writer — the machine-readable stream OPERATIONS.md documents.
// Safe for concurrent Emit calls.
type JSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONSink returns a sink encoding events as JSON lines on w.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// Emit encodes e as one JSON line. Encoding errors are dropped: an
// observability sink must never fail the operation it observes.
func (s *JSONSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(e)
}
