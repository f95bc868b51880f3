package main

// metricDef is one metric of the catalog BENCHMARK.json declares; a test
// keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run. Every one applies to
// every workload; what an operation and a unit are depends on the
// workload (README.md).
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run (-trace 1), zero where the
// workload does not exercise the layer.
var perLayer = []metricDef{
	{"sched.decide_calls", "count", "lower"},
	{"sched.decide_s", "s", "lower"},
	{"sched.decision_hits", "count", "higher"},
	{"sched.decision_lookups", "count", "lower"},
	{"analytic.memo_hits", "count", "higher"},
	{"analytic.memo_lookups", "count", "lower"},
	{"avail.walk_calls", "count", "lower"},
	{"avail.walk_s", "s", "lower"},
	{"avail.slots_walked", "count", "lower"},
	{"avail.fit_calls", "count", "lower"},
	{"avail.fit_s", "s", "lower"},
	{"sim.runs", "count", "higher"},
	{"sim.self_s", "s", "lower"},
	{"grid.apps", "count", "higher"},
	{"grid.preemptions", "count", "lower"},
	{"grid.deadline_misses", "count", "lower"},
	{"exp.append_s", "s", "lower"},
	{"exp.resume_s", "s", "lower"},
	{"exp.replay_s", "s", "lower"},
	{"exp.export_s", "s", "lower"},
	{"exp.render_s", "s", "lower"},
	{"exp.journal_bytes", "bytes", "lower"},
	{"exp.append_records_per_s", "1/s", "higher"},
	{"exp.resume_records_per_s", "1/s", "higher"},
	{"exp.replay_records_per_s", "1/s", "higher"},
	{"exp.export_records_per_s", "1/s", "higher"},
	{"serve.submit_ms_p50", "ms", "lower"},
	{"serve.queue_ms_p50", "ms", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.artifact_ms_p50", "ms", "lower"},
	{"serve.sse_events", "count", "higher"},
	{"serve.sse_subscriptions", "count", "higher"},
	{"serve.sse_dropped", "count", "lower"},
	{"process.rss_mb", "MB", "lower"},
	{"process.peak_rss_mb", "MB", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}
