package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	pramcc "repro"
	"repro/graph"
	"repro/internal/shard"
)

// The stream workload: two durable tenants on a two-shard Router, fed
// tiny batches by an open-loop generator while a reader queries them.
const (
	streamN        = 1_000_000
	streamPreloadM = 2_000_000
	preloadSpans   = 8
	streamShards   = 2
	streamTenants  = 2
	streamRate     = 60.0 // ingest requests per second, all tenants together
	queryTick      = time.Millisecond
	streamQ        = 64 // queries per batch
	reopenCycles   = 5
	// ckptEvery mirrors pramcc's default checkpoint cadence in the
	// standalone replay of the traced run.
	ckptEvery = 64
)

// streamTenant is what the workload calls on a tenant; pramcc.Tenant
// and shard.Tenant both provide it.
type streamTenant interface {
	IngestSpan(ctx context.Context, span graph.EdgeSpan) (int, error)
	SameComponent(v, w int) bool
	LabelsInto(dst []int32) []int32
}

// ingestReq is one scheduled ingest request and its outcome.
type ingestReq struct {
	due         time.Duration // offset of the send time from the phase start
	tenant      int
	span        graph.EdgeSpan
	traced      bool
	sent, acked time.Time
	err         error
	spanID      int64 // traced run: the request's span
}

// queryBatch is one timed batch of same-component queries.
type queryBatch struct {
	tenant  int
	service bool // asked the Service directly, bypassing the Tenant
	start   time.Time
	perNs   float64
	pairs   []int32 // v0 w0 v1 w1 …
	answers []bool
}

// schedule draws the open-loop request sequence up front: Poisson
// arrivals at streamRate, a uniformly chosen tenant, and batch sizes of
// 1–16 edges with a tail of 256 (2%) and 4096 (0.5%) edges.
func schedule(seed int64, d time.Duration) []*ingestReq {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var out []*ingestReq
	for t := 0.0; ; {
		t += rng.ExpFloat64() / streamRate
		if t >= d.Seconds() {
			return out
		}
		size := 1 + rng.Intn(16)
		switch x := rng.Float64(); {
		case x < 0.005:
			size = 4096
		case x < 0.025:
			size = 256
		}
		u, v := make([]int32, 2*size), make([]int32, 2*size)
		for i := 0; i < size; i++ {
			a, b := int32(rng.Intn(streamN)), int32(rng.Intn(streamN))
			u[2*i], v[2*i], u[2*i+1], v[2*i+1] = a, b, b, a
		}
		out = append(out, &ingestReq{due: time.Duration(t * 1e9), tenant: rng.Intn(streamTenants),
			span: graph.EdgeSpan{U: u, V: v}})
	}
}

// tenantIDs returns the first streamTenants candidate ids that land on
// distinct shards, so each tenant has a shard worker of its own.
func tenantIDs(shardOf func(string) int) []string {
	var ids []string
	used := map[int]bool{}
	for i := 0; len(ids) < streamTenants; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		if s := shardOf(id); !used[s] || i >= 64 {
			used[s] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// serviceCall is one call the shard worker made into a tenant's
// Service, as seen by timedService.
type serviceCall struct {
	start, end time.Time
	span       graph.EdgeSpan
	err        error
	spanID     int64
}

// timedService wraps a tenant's pramcc.Service for shard.New, timing
// every IngestSpan the shard worker makes.
type timedService struct {
	*pramcc.Service
	mu    sync.Mutex
	calls []serviceCall
}

func (s *timedService) IngestSpan(ctx context.Context, span graph.EdgeSpan) (int, error) {
	start := time.Now()
	res, err := s.Service.IngestSpan(ctx, span)
	end := time.Now()
	s.mu.Lock()
	s.calls = append(s.calls, serviceCall{start: start, end: end, span: span, err: err})
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return res.NumComponents, nil
}

// streamSys is the router under test with its tenants.
type streamSys struct {
	ids      []string
	tenants  []streamTenant
	services []*timedService // traced run only
	close    func()
}

func routerConfig(dir string) pramcc.RouterConfig {
	return pramcc.RouterConfig{Shards: streamShards, DataDir: dir,
		Options: []pramcc.Option{pramcc.WithWorkers(1)}}
}

// openStream builds a fresh router in dir and creates the tenants. The
// untraced run uses pramcc.Router; the traced run builds the same
// router from shard.New with a timedService around each tenant's
// durable Service, laid out on disk exactly as pramcc.Router does.
func openStream(dir string, traced bool) (*streamSys, error) {
	sys := &streamSys{}
	if !traced {
		rt, err := pramcc.NewRouter(routerConfig(dir))
		if err != nil {
			return nil, err
		}
		sys.close = rt.Close
		sys.ids = tenantIDs(rt.ShardOf)
		for _, id := range sys.ids {
			t, err := rt.CreateTenant(id, streamN)
			if err != nil {
				rt.Close()
				return nil, err
			}
			sys.tenants = append(sys.tenants, t)
		}
		return sys, nil
	}
	services := map[string]*timedService{}
	rt, err := shard.New(shard.Config{Shards: streamShards,
		NewService: func(id string, n int) (shard.Service, error) {
			sv, err := pramcc.Open(filepath.Join(dir, "t", id), pramcc.WithInitialVertices(n), pramcc.WithWorkers(1))
			if err != nil {
				return nil, err
			}
			ts := &timedService{Service: sv}
			services[id] = ts
			return ts, nil
		}})
	if err != nil {
		return nil, err
	}
	sys.close = rt.Close
	sys.ids = tenantIDs(rt.ShardOf)
	for _, id := range sys.ids {
		t, err := rt.CreateTenant(id, streamN)
		if err != nil {
			rt.Close()
			return nil, err
		}
		sys.tenants = append(sys.tenants, t)
		sys.services = append(sys.services, services[id])
	}
	return sys, nil
}

// setupStream opens a router in dir and preloads every tenant with a
// Gnm(streamN, streamPreloadM) graph in preloadSpans bulk spans.
func setupStream(dir string, seed int64, traced bool) (*streamSys, [][]graph.EdgeSpan, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	sys, err := openStream(dir, traced)
	if err != nil {
		return nil, nil, err
	}
	preload := make([][]graph.EdgeSpan, streamTenants)
	for i, t := range sys.tenants {
		preload[i] = graph.Gnm(streamN, streamPreloadM, seed+int64(10+i)).SpanBatches(preloadSpans)
		for _, sp := range preload[i] {
			if _, err := t.IngestSpan(context.Background(), sp); err != nil {
				sys.close()
				return nil, nil, fmt.Errorf("preload: %w", err)
			}
		}
	}
	return sys, preload, nil
}

func runStream(cfg config, r *report) error {
	var sys *streamSys
	var preload [][]graph.EdgeSpan
	var setups []float64
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("stream-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	for rep := 0; rep < setupReps; rep++ {
		if sys != nil {
			sys.close()
			sys = nil
			releaseMemory()
		}
		t := time.Now()
		s, p, err := setupStream(dir, cfg.seed, cfg.trace)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		sys, preload = s, p
	}
	r.set("setup_s", median(setups))
	reqs := schedule(cfg.seed, cfg.duration())
	// The traced run traces every other request, so traced and untraced
	// requests share the same moments and their difference is the
	// tracing overhead.
	for i, q := range reqs {
		q.traced = cfg.trace && i%2 == 1
	}

	// The measured phase: an open-loop sender and a ticking reader. The
	// replay of the traced run starts from the preloaded state, so it
	// takes only the Service calls made from here on.
	for _, ts := range sys.services {
		ts.mu.Lock()
		ts.calls = nil
		ts.mu.Unlock()
	}
	resetPeakRSS()
	ctx := context.Background()
	origin := time.Now().Add(10 * time.Millisecond)
	stopQ := make(chan struct{})
	var batches []*queryBatch
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		batches = queryLoop(cfg, r.spans, sys, stopQ)
	}()
	var wg sync.WaitGroup
	for i, q := range reqs {
		sendAt(origin.Add(q.due))
		q.sent = time.Now()
		wg.Add(1)
		go func(i int, q *ingestReq) {
			defer wg.Done()
			_, q.err = sys.tenants[q.tenant].IngestSpan(ctx, q.span)
			q.acked = time.Now()
			if q.traced {
				q.spanID = r.spans.record("shard.Tenant.IngestSpan", 0, int64(i+1), q.sent, q.acked)
			}
		}(i, q)
	}
	wg.Wait()
	close(stopQ)
	qwg.Wait()
	r.set("peak_rss_mb", peakRSSMB())

	var lat, latPlain, latTraced, late []float64
	for _, q := range reqs {
		r.attempted++
		late = append(late, ms(q.sent.Sub(origin.Add(q.due))))
		if errors.Is(q.err, pramcc.ErrOverloaded) || errors.Is(q.err, pramcc.ErrTenantBacklog) {
			r.failed++ // a rejection is a failure, never a fast reply
			continue
		}
		if q.err != nil {
			r.wrong("ingest: %v", q.err)
			continue
		}
		l := ms(q.acked.Sub(origin.Add(q.due)))
		lat = append(lat, l)
		if q.traced {
			latTraced = append(latTraced, l)
		} else {
			latPlain = append(latPlain, l)
		}
	}
	var tenantQ, serviceQ []float64
	for _, b := range batches {
		r.attempted += int64(len(b.answers))
		if b.service {
			serviceQ = append(serviceQ, b.perNs)
		} else {
			tenantQ = append(tenantQ, b.perNs)
		}
	}
	r.set("op_p25_ms", quantile(sorted(lat), 2500))
	r.latency("ingest_ms (due to ack)", "ms", lat)
	r.latency("query_ns (Tenant.SameComponent)", "ns", tenantQ)
	r.latency("generator lateness", "ms", late)
	r.detail("%d requests scheduled at %.0f/s over %d s, %d rejected", len(reqs), streamRate, cfg.seconds, r.failed)

	// Oracle: per tenant, the preload plus every acknowledged batch.
	oracles := streamOracle(r, sys, preload, reqs, batches)

	// Close and warm-start the router on the same data directory.
	sys.close()
	var reopen []float64
	for c := 0; c < reopenCycles; c++ {
		t := time.Now()
		rt, err := pramcc.NewRouter(routerConfig(dir))
		if err != nil {
			return fmt.Errorf("reopen %d: %w", c, err)
		}
		reopen = append(reopen, ms(time.Since(t)))
		r.attempted++
		if c == reopenCycles-1 {
			for i, id := range sys.ids {
				tn, err := rt.Tenant(id)
				if err != nil {
					r.wrong("reopen: %v", err)
					continue
				}
				if err := checkLabels(oracles[i], tn.LabelsInto(nil)); err != nil {
					r.wrong("tenant %s after reopen: %v", id, err)
				}
			}
		}
		rt.Close()
	}
	r.latency("recover_ms (NewRouter warm start)", "ms", reopen)
	r.detail("setup %.3f s (reps %v)", median(setups), setups)
	if !cfg.trace {
		return nil
	}

	r.set("router.ingest_p50_ms", median(latPlain))
	if v, _, ok := tail(latPlain); ok {
		r.set("router.ingest_p99_ms", v)
	}
	if v, _, ok := tail(tenantQ); ok {
		r.set("router.query_p999_ns", v)
	}
	r.set("router.recover_ms", median(reopen))
	r.set("router.query_p50_ns", median(tenantQ))
	r.set("service.same_p50_ns", median(serviceQ))
	if v, _, ok := tail(late); ok {
		r.set("gen.lateness_p99_ms", v)
	}
	r.set("trace.overhead_pct", 100*(quantile(sorted(latTraced), 2500)/quantile(sorted(latPlain), 2500)-1))
	r.latency("ingest_ms, untraced requests", "ms", latPlain)
	r.latency("ingest_ms, traced requests", "ms", latTraced)
	streamLayers(r, sys, reqs)
	return replayLayers(cfg, r, sys, preload, oracles)
}

// sendAt returns at due: it sleeps until shortly before and then
// yields until due, because a plain sleep overshoots by a timer tick
// and that lateness would count as latency.
func sendAt(due time.Time) {
	if d := time.Until(due) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// queryLoop asks a batch of random same-component queries on every
// tick until stop closes, alternating tenants. In the traced run every
// other batch goes to the tenant's Service directly, and every batch
// is recorded as a span.
func queryLoop(cfg config, tr *tracer, sys *streamSys, stop <-chan struct{}) []*queryBatch {
	rng := rand.New(rand.NewSource(cfg.seed*31 + 7))
	tick := time.NewTicker(queryTick)
	defer tick.Stop()
	var out []*queryBatch
	for k := 0; ; k++ {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		b := &queryBatch{tenant: k % streamTenants, service: cfg.trace && (k/streamTenants)%2 == 1,
			pairs: make([]int32, 2*streamQ), answers: make([]bool, streamQ)}
		for i := range b.pairs {
			b.pairs[i] = int32(rng.Intn(streamN))
		}
		same := sys.tenants[b.tenant].SameComponent
		if b.service {
			same = sys.services[b.tenant].Service.SameComponent
		}
		b.start = time.Now()
		for i := range b.answers {
			b.answers[i] = same(int(b.pairs[2*i]), int(b.pairs[2*i+1]))
		}
		end := time.Now()
		b.perNs = ns(end.Sub(b.start)) / streamQ
		if tr != nil {
			name := "shard.Tenant.SameComponent"
			if b.service {
				name = "pramcc.Service.SameComponent"
			}
			tr.record(name, 0, int64(k+1), b.start, end)
		}
		out = append(out, b)
	}
}
