package pramcc

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Event is the structured observability envelope every subsystem emits
// into: source/category/name/status/duration_ms/measures, serialized
// as one JSON object per event by the JSON sink. The schema is
// documented field by field in OPERATIONS.md.
type Event = obs.Event

// EventSink consumes emitted events; see SetEventSink.
type EventSink = obs.Sink

// SetEventSink attaches a process-wide event sink (nil detaches). With
// no sink attached — the default — instrumentation is free: counters
// are single atomic adds and no envelope is ever built, so the
// zero-allocation ingest and solve paths keep their guarantees (E15
// measures this; TestSpanIngestZeroAlloc enforces it). With a sink
// attached, engines emit round/batch-boundary events and the Service
// emits one event per Update/IngestSpan/Grow call.
func SetEventSink(s EventSink) { obs.SetSink(s) }

// NewJSONEventSink returns a sink writing one JSON event per line to
// w, the stream format OPERATIONS.md documents (ccserve -events wires
// it to a file or stderr).
func NewJSONEventSink(w io.Writer) EventSink { return obs.NewJSONSink(w) }

// WriteMetrics renders every registered metric in Prometheus text
// exposition format — the body of ccserve's /metrics endpoint.
// OPERATIONS.md is the metrics reference; scripts/check_docs.sh keeps
// it complete against the registry.
func WriteMetrics(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// MetricNames returns the names of every registered metric, sorted —
// the generated list the docs-consistency check compares OPERATIONS.md
// against (ccserve -list-metrics prints it).
func MetricNames() []string { return obs.Default.Names() }

// Service-level metrics: the serving-layer view (spans/edges accepted,
// update and ingest latencies, published-snapshot identity) on top of
// the engine- and pool-level metrics registered by the internal
// packages. Process-wide: with several Services in one process the
// counters aggregate and the snapshot gauges describe the most recent
// publisher. Under ccserve -shards N every tenant is a Service, so the
// snapshot gauges describe whichever tenant published last, not any
// one tenant.
var (
	mIngestSpans = obs.Default.Counter("pramcc_ingest_spans_total",
		"span batches accepted by Service.IngestSpan (Ingest rides the same path)")
	mIngestEdges = obs.Default.Counter("pramcc_ingest_edges_total",
		"edges accepted by Service.IngestSpan")
	mIngestErrors = obs.Default.Counter("pramcc_ingest_errors_total",
		"Service.IngestSpan calls that failed (validation, cancellation, wrong backend)")
	mIngestDur = obs.Default.Histogram("pramcc_ingest_duration_seconds",
		"latency of successful Service.IngestSpan calls", nil)
	mUpdates = obs.Default.Counter("pramcc_updates_total",
		"successful Service.Update recomputes")
	mUpdateErrors = obs.Default.Counter("pramcc_update_errors_total",
		"Service.Update calls that failed or were cancelled")
	mUpdateDur = obs.Default.Histogram("pramcc_update_duration_seconds",
		"latency of successful Service.Update calls", nil)
	mSnapshotSeq = obs.Default.Gauge("pramcc_snapshot_seq",
		"sequence number of the most recently published snapshot (process-wide)")
	mSnapshotVertices = obs.Default.Gauge("pramcc_snapshot_vertices",
		"vertex count of the most recently published snapshot")
	mSnapshotComponents = obs.Default.Gauge("pramcc_snapshot_components",
		"component count of the most recently published snapshot")
)

// snapshotSeq numbers every snapshot publication in the process;
// lastPublishNanos feeds the scrape-time snapshot-age gauge.
var (
	snapshotSeq      atomic.Int64
	lastPublishNanos atomic.Int64
)

func init() {
	obs.Default.GaugeFunc("pramcc_snapshot_age_seconds",
		"seconds since a Service last published a snapshot (-1 before the first publish)",
		func() float64 {
			ns := lastPublishNanos.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}

// notePublish records a snapshot publication on the serving metrics.
func notePublish(r *Result) {
	mSnapshotSeq.Set(snapshotSeq.Add(1))
	mSnapshotVertices.Set(int64(len(r.Labels)))
	mSnapshotComponents.Set(int64(r.NumComponents))
	lastPublishNanos.Store(time.Now().UnixNano())
}

// statusOf maps an error to the envelope's status vocabulary.
func statusOf(err error) string {
	switch {
	case err == nil:
		return obs.StatusOK
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return obs.StatusCancelled
	default:
		return obs.StatusError
	}
}

// obsEnabled reports whether an event sink is attached — the gate the
// Service wraps envelope construction in.
//
//pramcc:zeroalloc
func obsEnabled() bool { return obs.Enabled() }

// emitService emits one serving-layer event when a sink is attached;
// measures may be nil. Gated here so call sites stay one line and the
// no-sink path never builds the envelope.
func emitService(name, status string, d time.Duration, measures map[string]float64) {
	obs.Emit(obs.Event{Source: "service", Category: "serve", Name: name,
		Status: status, DurationMS: float64(d.Nanoseconds()) / 1e6,
		Measures: measures})
}
