package main

// metricDef names one reported metric. For a per-layer metric, moves
// and on say which end-to-end metric it should move, on which workload.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics a user of pramcc sees. Every workload
// reports all of them, each for its own operation (see README.md).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "op_p25_ms", unit: "ms", better: "lower"},
}

// perLayer are the metrics of the traced run. Every traced run
// reports all of them; a layer a workload leaves idle reads 0.
var perLayer = []metricDef{
	{"graph.gen_gnm_s", "s", "lower", "setup_s", "solve"},
	{"graph.gen_rmat_s", "s", "lower", "setup_s", "solve"},
	{"graph.validate_p50_us", "us", "lower", "op_p25_ms", "stream"},

	{"native.run_gnm_ms", "ms", "lower", "op_p25_ms", "solve"},
	{"native.run_rmat_ms", "ms", "lower", "op_p25_ms", "solve"},
	{"native.rounds_gnm", "count", "lower", "op_p25_ms", "solve"},
	{"native.rounds_rmat", "count", "lower", "op_p25_ms", "solve"},

	{"incremental.addgraph_gnm_ms", "ms", "lower", "op_p25_ms", "solve"},
	{"incremental.addgraph_rmat_ms", "ms", "lower", "op_p25_ms", "solve"},
	{"incremental.publish_p50_ms", "ms", "lower", "op_p25_ms", "stream"},
	{"incremental.union_p50_us", "us", "lower", "op_p25_ms", "stream"},
	{"incremental.restore_ms", "ms", "lower", "router.recover_ms", "stream"},

	{"shard.queue_wait_p50_ms", "ms", "lower", "op_p25_ms", "stream"},
	{"shard.queue_wait_p99_ms", "ms", "lower", "router.ingest_p99_ms", "stream"},
	{"shard.spans_per_batch", "ratio", "higher", "router.ingest_p99_ms", "stream"},

	{"solver.solve_native_gnm_ms", "ms", "lower", "op_p25_ms", "solve"},
	{"solver.solve_native_rmat_ms", "ms", "lower", "op_p25_ms", "solve"},
	{"solver.solve_incremental_gnm_ms", "ms", "lower", "op_p25_ms", "solve"},
	{"solver.solve_incremental_rmat_ms", "ms", "lower", "op_p25_ms", "solve"},
	{"solver.assemble_ms", "ms", "lower", "op_p25_ms", "solve"},
	{"solver.alloc_bytes_native", "bytes", "lower", "peak_rss_mb", "solve"},
	{"solver.alloc_bytes_incremental", "bytes", "lower", "peak_rss_mb", "solve"},
	{"service.ingest_p50_ms", "ms", "lower", "op_p25_ms", "stream"},
	{"service.ingest_p99_ms", "ms", "lower", "router.ingest_p99_ms", "stream"},
	{"service.same_p50_ns", "ns", "lower", "router.query_p50_ns", "stream"},
	{"router.ingest_p50_ms", "ms", "lower", "op_p25_ms", "stream"},
	{"router.ingest_p99_ms", "ms", "lower", "ingest tail (not gated)", "stream"},
	{"router.query_p50_ns", "ns", "lower", "reads (not gated)", "stream"},
	{"router.query_p999_ns", "ns", "lower", "reads (not gated)", "stream"},
	{"router.recover_ms", "ms", "lower", "restart (not gated)", "stream"},
	{"sim.cc_ms", "ms", "lower", "op_p25_ms", "simulate"},
	{"sim.loglog_ms", "ms", "lower", "op_p25_ms", "simulate"},
	{"sim.forest_ms", "ms", "lower", "op_p25_ms", "simulate"},

	{"durable.logspan_p50_us", "us", "lower", "op_p25_ms", "stream"},
	{"durable.logspan_p99_us", "us", "lower", "router.ingest_p99_ms", "stream"},
	{"durable.checkpoint_ms", "ms", "lower", "router.ingest_p99_ms", "stream"},
	{"durable.bytes_per_edge", "bytes", "lower", "router.ingest_p99_ms", "stream"},
	{"durable.open_ms", "ms", "lower", "router.recover_ms", "stream"},
	{"durable.replayed_batches", "count", "lower", "router.recover_ms", "stream"},

	{"core.run_ms", "ms", "lower", "op_p25_ms", "simulate"},
	{"ccbase.run_ms", "ms", "lower", "op_p25_ms", "simulate"},
	{"spanning.run_ms", "ms", "lower", "op_p25_ms", "simulate"},
	{"pram.ns_per_step_cc", "ns", "lower", "op_p25_ms", "simulate"},
	{"pram.ns_per_step_loglog", "ns", "lower", "op_p25_ms", "simulate"},
	{"pram.ns_per_step_forest", "ns", "lower", "op_p25_ms", "simulate"},
	{"pram.steps_cc", "count", "lower", "op_p25_ms", "simulate"},
	{"pram.steps_loglog", "count", "lower", "op_p25_ms", "simulate"},
	{"pram.steps_forest", "count", "lower", "op_p25_ms", "simulate"},
	{"pram.work_cc", "count", "lower", "op_p25_ms", "simulate"},
	{"pram.work_loglog", "count", "lower", "op_p25_ms", "simulate"},
	{"pram.work_forest", "count", "lower", "op_p25_ms", "simulate"},
	{"pram.max_procs_cc", "count", "lower", "op_p25_ms", "simulate"},
	{"pram.max_procs_loglog", "count", "lower", "op_p25_ms", "simulate"},
	{"pram.max_procs_forest", "count", "lower", "op_p25_ms", "simulate"},
	{"pram.peak_space_cc", "count", "lower", "peak_rss_mb", "simulate"},
	{"pram.peak_space_loglog", "count", "lower", "peak_rss_mb", "simulate"},
	{"pram.peak_space_forest", "count", "lower", "peak_rss_mb", "simulate"},
	{"core.rounds", "count", "lower", "op_p25_ms", "simulate"},
	{"core.max_level", "count", "lower", "op_p25_ms", "simulate"},
	{"core.cum_block_words", "count", "lower", "op_p25_ms", "simulate"},
	{"core.post_phases", "count", "lower", "op_p25_ms", "simulate"},
	{"ccbase.phases", "count", "lower", "op_p25_ms", "simulate"},
	{"spanning.phases", "count", "lower", "op_p25_ms", "simulate"},

	{"gen.lateness_p99_ms", "ms", "lower", "router.ingest_p99_ms", "stream"},
	{"trace.overhead_pct", "%", "lower", "op_p25_ms", "all"},
}
