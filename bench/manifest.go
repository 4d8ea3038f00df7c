package main

// The manifest is the benchmark's vocabulary: workload and metric names
// with their units, directions and regression bounds. BENCHMARK.json at
// the repo root carries the same lists (bench_test.go keeps the two in
// step); later issues cite these names verbatim.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadDefs = []workloadDef{
	{"warm_prepared", "pre-parsed requests that all hit the plan cache, so key build, hash and sharded lookup are the whole request"},
	{"warm_sql", "the same cached keys requested as SQL text, so every op also pays sqlmini parse and query validate"},
	{"cold_plan", "distinct problems cycled through a small cache so every op misses and the optimizer does nearly all the work"},
	{"exec_loop", "SQL in, pages out: plans are executed on the page engine, so plan quality is paid in realized page I/O"},
	{"drift_feedback", "batched requests over drifting tenant catalogs with Observe calls, using plan cache and feedback for writes"},
}

// endToEnd are the metrics every workload reports with tracing off; they
// are the bounded end_to_end list of BENCHMARK.json.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", higher, 0.25},
	{"latency_p50_us", "us", lower, 0.25},
	{"latency_p99_us", "us", lower, 0.25},
	{"ec_ratio", "ratio", lower, 0.04},
	{"setup_s", "s", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.15},
}

// runMetrics are end-to-end figures that are zero or undefined on some
// workload (a warm hit allocates nothing, only exec_loop reads pages), so
// they cannot carry a relative bound. The human table reports them beside
// endToEnd under their bare names; BENCHMARK.json tracks them, unbounded,
// under the "run." prefix.
var runMetrics = []metricDef{
	{"allocs_per_req", "count", lower, 0.05}, // bounds here are used by -aa only
	{"bytes_per_req", "bytes", lower, 0.10},
	{"pages_per_req", "pages", lower, 0},
	{"realized_io_ratio", "ratio", lower, 0},
	{"error_share", "ratio", lower, 0},
}

const runPrefix = "run."

// tableMetrics are the end-to-end figures in the order the human table and
// the A/A comparison list them.
func tableMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), runMetrics...)
}

// perLayer lists the 86 layer metrics, named <module>.<metric>: _ns is
// the median ns per call, _share a ratio in [0,1], anything else a count
// or ratio as its unit says.
var perLayer = []metricDef{
	{Name: "sqlmini.parse_ns", Unit: "ns", Better: lower},
	{Name: "sqlmini.parse_allocs", Unit: "count", Better: lower},
	{Name: "query.validate_ns", Unit: "ns", Better: lower},
	{Name: "query.canonical_ns", Unit: "ns", Better: lower},

	{Name: "catalog.fingerprint_ns", Unit: "ns", Better: lower},
	{Name: "catalog.banded_fingerprint_ns", Unit: "ns", Better: lower},
	{Name: "catalog.scale_distinct_ns", Unit: "ns", Better: lower},

	{Name: "plancache.key_ns", Unit: "ns", Better: lower},
	{Name: "plancache.key_margin_ns", Unit: "ns", Better: lower},
	{Name: "plancache.get_hit_ns", Unit: "ns", Better: lower},
	{Name: "plancache.get_miss_ns", Unit: "ns", Better: lower},
	{Name: "plancache.put_ns", Unit: "ns", Better: lower},
	{Name: "plancache.hit_share", Unit: "ratio", Better: higher},
	{Name: "plancache.margin_hit_share", Unit: "ratio", Better: higher},
	{Name: "plancache.evictions", Unit: "count", Better: lower},
	{Name: "plancache.entries", Unit: "count", Better: lower},

	{Name: "core.optimize_hit_ns", Unit: "ns", Better: lower},
	{Name: "core.optimize_miss_ns", Unit: "ns", Better: lower},
	{Name: "core.hit_with_feedback_ns", Unit: "ns", Better: lower},
	{Name: "core.self_ns", Unit: "ns", Better: lower},
	{Name: "core.batch_req_ns", Unit: "ns", Better: lower},
	{Name: "core.cached_probe_ns", Unit: "ns", Better: lower},
	{Name: "core.observe_ns", Unit: "ns", Better: lower},
	{Name: "core.prepare_ns", Unit: "ns", Better: lower},
	{Name: "core.hit_allocs", Unit: "count", Better: lower},
	{Name: "core.miss_allocs", Unit: "count", Better: lower},

	{Name: "feedback.observe_ns", Unit: "ns", Better: lower},
	{Name: "feedback.hints_ns", Unit: "ns", Better: lower},
	{Name: "feedback.queries", Unit: "count", Better: lower},
	{Name: "feedback.observations", Unit: "count", Better: higher},

	{Name: "optimizer.lsc_ns", Unit: "ns", Better: lower},
	{Name: "optimizer.alg_a_ns", Unit: "ns", Better: lower},
	{Name: "optimizer.alg_b_ns", Unit: "ns", Better: lower},
	{Name: "optimizer.alg_c_ns", Unit: "ns", Better: lower},
	{Name: "optimizer.alg_c_dynamic_ns", Unit: "ns", Better: lower},
	{Name: "optimizer.alg_d_ns", Unit: "ns", Better: lower},
	{Name: "optimizer.alg_c_ns_t4", Unit: "ns", Better: lower},
	{Name: "optimizer.alg_c_ns_t6", Unit: "ns", Better: lower},
	{Name: "optimizer.alg_c_ns_t8", Unit: "ns", Better: lower},
	{Name: "optimizer.alg_c_ns_t10", Unit: "ns", Better: lower},
	{Name: "optimizer.lsc_ns_t4", Unit: "ns", Better: lower},
	{Name: "optimizer.lsc_ns_t6", Unit: "ns", Better: lower},
	{Name: "optimizer.lsc_ns_t8", Unit: "ns", Better: lower},
	{Name: "optimizer.lsc_ns_t10", Unit: "ns", Better: lower},
	{Name: "optimizer.allocs_lsc", Unit: "count", Better: lower},
	{Name: "optimizer.allocs_a", Unit: "count", Better: lower},
	{Name: "optimizer.allocs_b", Unit: "count", Better: lower},
	{Name: "optimizer.allocs_c", Unit: "count", Better: lower},
	{Name: "optimizer.allocs_d", Unit: "count", Better: lower},
	{Name: "optimizer.ns_per_subset", Unit: "ns", Better: lower},
	{Name: "optimizer.algc_over_lsc", Unit: "ratio", Better: lower},
	{Name: "optimizer.breakeven_execs", Unit: "count", Better: lower},

	{Name: "cost.join_io_ns", Unit: "ns", Better: lower},
	{Name: "expcost.join_ec_linear_ns", Unit: "ns", Better: lower},
	{Name: "dist.rebucket_ns", Unit: "ns", Better: lower},
	{Name: "dist.expectf_ns", Unit: "ns", Better: lower},
	{Name: "plan.clone_ns", Unit: "ns", Better: lower},
	{Name: "plan.signature_ns", Unit: "ns", Better: lower},
	{Name: "plan.cost_phases_ns", Unit: "ns", Better: lower},

	{Name: "parametric.select_ns", Unit: "ns", Better: lower},
	{Name: "envsim.sample_ns", Unit: "ns", Better: lower},

	{Name: "engine.execute_ns", Unit: "ns", Better: lower},
	{Name: "engine.ns_per_page", Unit: "ns", Better: lower},
	{Name: "engine.nl_ns_per_page", Unit: "ns", Better: lower},
	{Name: "engine.sm_ns_per_page", Unit: "ns", Better: lower},
	{Name: "engine.gh_ns_per_page", Unit: "ns", Better: lower},
	{Name: "engine.sort_ns_per_page", Unit: "ns", Better: lower},
	{Name: "engine.index_scan_ns_per_page", Unit: "ns", Better: lower},
	{Name: "engine.heap_scan_ns_per_page", Unit: "ns", Better: lower},
	{Name: "engine.pages_read", Unit: "pages", Better: lower},
	{Name: "engine.pages_written", Unit: "pages", Better: lower},
	{Name: "engine.rows_out", Unit: "count", Better: higher},
	{Name: "engine.grace_fallbacks", Unit: "count", Better: lower},

	{Name: "buffer.hit_share", Unit: "ratio", Better: higher},
	{Name: "buffer.read_hit_ns", Unit: "ns", Better: lower},
	{Name: "buffer.read_miss_ns", Unit: "ns", Better: lower},
	{Name: "buffer.append_ns", Unit: "ns", Better: lower},
	{Name: "storage.page_ns", Unit: "ns", Better: lower},
	{Name: "storage.generate_ns", Unit: "ns", Better: lower},
	{Name: "storage.build_index_ns", Unit: "ns", Better: lower},
	{Name: "storage.leaked_temps", Unit: "count", Better: lower},

	{Name: "resilience.do_ns", Unit: "ns", Better: lower},
	{Name: "resilience.price_hit_over_measured", Unit: "ratio", Better: lower},
	{Name: "resilience.price_cold_over_measured", Unit: "ratio", Better: lower},

	{Name: "trace.coverage", Unit: "ratio", Better: higher},
	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
}

// perLayerManifest is the per_layer list of BENCHMARK.json: the layer
// metrics plus the unbounded run.* figures.
func perLayerManifest() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range runMetrics {
		m.Name, m.Bound = runPrefix+m.Name, 0
		out = append(out, m)
	}
	return out
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}
