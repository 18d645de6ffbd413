package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/graph"
	"repro/internal/durable"
	"repro/internal/incremental"
)

// streamOracle rebuilds each tenant's components with the sequential
// union-find and checks the run against it: every false answer must be
// false given the batches acknowledged before the query started, every
// true answer must hold once all acknowledged batches are in, and the
// tenant's live labeling must match. It returns the final oracle
// labels per tenant.
func streamOracle(r *report, sys *streamSys, preload [][]graph.EdgeSpan, reqs []*ingestReq, batches []*queryBatch) [][]int32 {
	out := make([][]int32, streamTenants)
	for i := range sys.tenants {
		uf := newUnionFind(streamN)
		for _, sp := range preload[i] {
			uf.addSpan(sp)
		}
		var acked []*ingestReq
		for _, q := range reqs {
			if q.tenant == i && q.err == nil {
				acked = append(acked, q)
			}
		}
		sort.Slice(acked, func(a, b int) bool { return acked[a].acked.Before(acked[b].acked) })
		var mine []*queryBatch
		for _, b := range batches {
			if b.tenant == i {
				mine = append(mine, b)
			}
		}
		next := 0
		for _, b := range mine {
			for ; next < len(acked) && acked[next].acked.Before(b.start); next++ {
				uf.addSpan(acked[next].span)
			}
			for k, ans := range b.answers {
				if !ans && uf.same(b.pairs[2*k], b.pairs[2*k+1]) {
					r.wrong("tenant %s: SameComponent(%d,%d) = false after the edge joining them was acknowledged",
						sys.ids[i], b.pairs[2*k], b.pairs[2*k+1])
				}
			}
		}
		for ; next < len(acked); next++ {
			uf.addSpan(acked[next].span)
		}
		for _, b := range mine {
			for k, ans := range b.answers {
				if ans && !uf.same(b.pairs[2*k], b.pairs[2*k+1]) {
					r.wrong("tenant %s: SameComponent(%d,%d) = true, but no acknowledged batch joins them",
						sys.ids[i], b.pairs[2*k], b.pairs[2*k+1])
				}
			}
		}
		out[i] = uf.labels()
		if err := checkLabels(out[i], sys.tenants[i].LabelsInto(nil)); err != nil {
			r.wrong("tenant %s live labels: %v", sys.ids[i], err)
		}
	}
	return out
}

// streamLayers derives the shard and Service metrics of the traced run
// from the requests and the calls timedService saw. A traced request's
// queue wait is its self time with the Service call that served it as
// the only child: the time it spent outside that call.
func streamLayers(r *report, sys *streamSys, reqs []*ingestReq) {
	var svc, wait []float64
	acked, calls := 0, 0
	for i, ts := range sys.services {
		for k := range ts.calls {
			c := &ts.calls[k]
			if c.err == nil {
				calls++
			}
			svc = append(svc, ms(c.end.Sub(c.start)))
			c.spanID = r.spans.record("pramcc.Service.IngestSpan", 0, 0, c.start, c.end)
		}
		for j, q := range reqs {
			if q.tenant != i || q.err != nil {
				continue
			}
			acked++
			if !q.traced {
				continue
			}
			// The serving call is the last one to end before the ack
			// that started after the send.
			k := sort.Search(len(ts.calls), func(k int) bool { return ts.calls[k].end.After(q.acked) }) - 1
			if k < 0 || ts.calls[k].start.Before(q.sent) {
				r.detail("request %d: no serving call found", j+1)
				continue
			}
			child := r.spans.get(ts.calls[k].spanID)
			if child.Parent == 0 { // a coalesced call is linked to its first request
				r.spans.link(child.ID, q.spanID, int64(j+1))
			}
			wait = append(wait, float64(selfTime(r.spans.get(q.spanID), []span{child}))/1e6)
		}
	}
	r.set("service.ingest_p50_ms", median(svc))
	if v, _, ok := tail(svc); ok {
		r.set("service.ingest_p99_ms", v)
	}
	r.set("shard.queue_wait_p50_ms", median(wait))
	if v, _, ok := tail(wait); ok {
		r.set("shard.queue_wait_p99_ms", v)
	}
	if calls > 0 {
		r.set("shard.spans_per_batch", float64(acked)/float64(calls))
	}
	r.latency("service.IngestSpan_ms", "ms", svc)
	r.latency("shard queue wait_ms", "ms", wait)
	r.detail("%d acknowledged requests over %d Service calls", acked, calls)
}

// countingFS is the durable package's OS filesystem, counting the
// bytes written through it.
type countingFS struct {
	durable.OSFS
	written *int64
}

func (c countingFS) Create(name string) (durable.File, error) {
	f, err := c.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.written}, nil
}

type countingFile struct {
	durable.File
	written *int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	*f.written += int64(n)
	return n, err
}

// replaySamples are the per-call timings of the standalone replay.
type replaySamples struct {
	validate, publish, union, logspan, ckpt, open, restore, replayed []float64
	written, edges                                                   int64
}

// replayLayers feeds each tenant's Service call sequence through a
// standalone incremental.Engine and durable.Store, the pieces
// Service.IngestSpan composes, and times every call: validate, publish
// (an empty AddSpan runs only the flatten), AddSpan of the batch, the
// WAL append with its fsync, and the checkpoints. It then reopens the
// store and restores the engine from its snapshot.
func replayLayers(cfg config, r *report, sys *streamSys, preload [][]graph.EdgeSpan, oracles [][]int32) error {
	var s replaySamples
	for i := range sys.services {
		if err := replayTenant(cfg, r, sys, i, preload[i], oracles[i], &s); err != nil {
			return fmt.Errorf("replay of tenant %s: %w", sys.ids[i], err)
		}
	}
	r.set("graph.validate_p50_us", median(s.validate))
	r.set("incremental.publish_p50_ms", median(s.publish))
	r.set("incremental.union_p50_us", median(s.union))
	r.set("durable.logspan_p50_us", median(s.logspan))
	if v, _, ok := tail(s.logspan); ok {
		r.set("durable.logspan_p99_us", v)
	}
	r.set("durable.checkpoint_ms", median(s.ckpt))
	if s.edges > 0 {
		r.set("durable.bytes_per_edge", float64(s.written)/float64(s.edges))
	}
	r.set("durable.open_ms", median(s.open))
	r.set("durable.replayed_batches", median(s.replayed))
	r.set("incremental.restore_ms", median(s.restore))
	r.latency("replay Validate_us", "us", s.validate)
	r.latency("replay publish_ms", "ms", s.publish)
	r.latency("replay union_us", "us", s.union)
	r.latency("replay LogSpan_us", "us", s.logspan)
	r.latency("replay Checkpoint_ms", "ms", s.ckpt)
	return nil
}

func replayTenant(cfg config, r *report, sys *streamSys, i int, preload []graph.EdgeSpan, oracle []int32, s *replaySamples) error {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("replay-%d-%d", os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var written int64
	st, _, err := durable.Open(dir, countingFS{written: &written})
	if err != nil {
		return err
	}
	defer st.Close()
	eng := incremental.New(streamN, incremental.Options{Workers: 1})
	defer eng.Close()
	// Cold start and preload, as pramcc.Open and Service.IngestSpan do.
	if err := st.Checkpoint(eng.Snapshot().Labels, 0); err != nil {
		return err
	}
	for _, sp := range preload {
		snap, err := eng.AddSpan(sp)
		if err != nil {
			return err
		}
		if _, err := st.LogSpan(sp); err != nil {
			return err
		}
		if st.BatchesSinceCheckpoint() >= ckptEvery {
			if err := st.Checkpoint(snap.Labels, st.Seq()); err != nil {
				return err
			}
		}
	}
	written = 0
	for k, c := range sys.services[i].calls {
		if c.err != nil {
			continue
		}
		req := int64(k + 1)
		r.attempted++
		b0 := time.Now()
		err := c.span.Validate(streamN)
		b1 := time.Now()
		if err != nil {
			r.wrong("replay: %v", err)
			continue
		}
		if _, err := eng.AddSpan(graph.EdgeSpan{}); err != nil {
			return err
		}
		b2 := time.Now()
		snap, err := eng.AddSpan(c.span)
		b3 := time.Now()
		if err != nil {
			return err
		}
		if _, err := st.LogSpan(c.span); err != nil {
			return err
		}
		b4 := time.Now()
		b5 := b4
		if st.BatchesSinceCheckpoint() >= ckptEvery {
			if err := st.Checkpoint(snap.Labels, st.Seq()); err != nil {
				return err
			}
			b5 = time.Now()
			s.ckpt = append(s.ckpt, ms(b5.Sub(b4)))
		}
		root := r.spans.record("replay.batch", 0, req, b0, b5)
		r.spans.record("graph.EdgeSpan.Validate", root, req, b0, b1)
		r.spans.record("incremental.Engine.AddSpan(empty)", root, req, b1, b2)
		r.spans.record("incremental.Engine.AddSpan", root, req, b2, b3)
		r.spans.record("durable.Store.LogSpan", root, req, b3, b4)
		if b5 != b4 {
			r.spans.record("durable.Store.Checkpoint", root, req, b4, b5)
		}
		s.validate = append(s.validate, float64(b1.Sub(b0).Nanoseconds())/1e3)
		s.publish = append(s.publish, ms(b2.Sub(b1)))
		s.union = append(s.union, float64((b3.Sub(b2)-b2.Sub(b1)).Nanoseconds())/1e3)
		s.logspan = append(s.logspan, float64(b4.Sub(b3).Nanoseconds())/1e3)
		s.edges += int64(c.span.Len())
	}
	s.written += written
	if err := checkLabels(oracle, eng.Snapshot().Labels); err != nil {
		r.wrong("standalone replay of tenant %s: %v", sys.ids[i], err)
	}
	if err := st.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	st2, rec, err := durable.Open(dir, nil)
	t1 := time.Now()
	if err != nil {
		return err
	}
	defer st2.Close()
	if rec == nil {
		return fmt.Errorf("store reopened empty")
	}
	r.spans.record("durable.Open", 0, 0, t0, t1)
	s.open = append(s.open, ms(t1.Sub(t0)))
	s.replayed = append(s.replayed, float64(len(rec.Records)))
	t0 = time.Now()
	eng.RestoreLabels(rec.Labels)
	t1 = time.Now()
	r.spans.record("incremental.Engine.RestoreLabels", 0, 0, t0, t1)
	s.restore = append(s.restore, ms(t1.Sub(t0)))
	return nil
}
