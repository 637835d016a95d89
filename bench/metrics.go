package main

// The vocabulary of the benchmark: every workload and metric name a
// later performance claim is made in. BENCHMARK.json repeats the names,
// units, directions and bounds (TestBenchmarkJSONMatchesTables keeps the
// two in step); README.md is the glossary.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"cold_predict", "every batch holds unseen plans, so the sampling pass does the work and the estimate cache is only written (all misses, constant eviction)"},
	{"plan_choice", "ChoosePlanContext on skewed data: up to 8 join orders per call share subtree passes, so the subtree memo and plan enumeration carry the time"},
	{"serve_http", "seen plans over loopback HTTP through front and two shards: the cache is only read, the time is sockets, JSON, two shard hops per submit and warm drains"},
	{"sim_cluster", "1000-machine round-robin simulation without contention: event-loop bound, and the only workload on which the parallel stepper runs"},
	{"sim_sharded", "10k tenants on 4 shards behind a predictive front door: routing and admission bound, serial, half of the arrivals shed"},
}

// e2eDef is one end-to-end metric. Bound is the share of the parent's
// median by which the metric may worsen before it counts as a
// regression. Exact marks metrics that are a pure function of the seed:
// between two runs of one seed any difference is a behaviour change,
// whatever the bound.
type e2eDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

var endToEnd = []e2eDef{
	{"ops_per_s", "1/s", "higher", 0.25, false},
	{"lat_p50_ms", "ms", "lower", 0.25, false},
	{"lat_p95_ms", "ms", "lower", 0.25, false},
	{"setup_s", "s", "lower", 0.25, false},
	{"peak_rss_mb", "MB", "lower", 0.25, false},
	{"rs_err", "ratio", "lower", 0.05, true},
	{"dn", "ratio", "lower", 0.05, true},
	{"cov90_err", "ratio", "lower", 0.05, true},
	{"mape", "ratio", "lower", 0.05, true},
}

// layerDef is one per-layer metric. Moves names the end-to-end metric
// (and workload) the layer metric is predicted to move; Exact marks
// counts that repeat exactly per seed in the traced run.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Moves  string
	Exact  bool
}

const (
	movesSetupCold  = "setup_s on cold_predict and plan_choice"
	movesSetupHTTP  = "setup_s on serve_http"
	movesPlanChoice = "plan_choice ops_per_s; negligible elsewhere"
	movesSample     = "ops_per_s and both latencies on cold_predict and plan_choice; no change on serve_http and the sims"
	movesPredictor  = "second order on cold_predict and plan_choice"
	movesWarmExec   = "serve_http drains and both sims' ops_per_s"
	movesNothing    = "nothing gated"
	movesServe      = "both sims' ops_per_s; not serve_http (far below 5% of a request)"
	movesEdge       = "serve_http latencies and ops_per_s"
	movesSim        = "counts must not move under a speed-only change"
	movesPrim       = "attributes a sim or edge movement to a primitive"
)

var perLayer = []layerDef{
	// Set-up: datagen, catalog, calibrate, sample behind uaqetp.Open.
	{"open.datagen_s", "s", "lower", "datagen", movesSetupCold, false},
	{"open.catalog_s", "s", "lower", "catalog", movesSetupCold, false},
	{"open.calibrate_s", "s", "lower", "calibrate", movesSetupCold, false},
	{"open.sample_build_s", "s", "lower", "sample", movesSetupCold, false},
	{"open.total_s", "s", "lower", "uaqetp", movesSetupCold, false},
	{"workload.generate_s", "s", "lower", "workload", movesSetupCold, false},
	{"serve.add_tenant_s", "s", "lower", "serve", movesSetupHTTP, false},

	// Pipeline stages, from the traced replay's spans.
	{"planner.build_us", "us", "lower", "plan", movesPlanChoice, false},
	{"planner.alternatives_us", "us", "lower", "plan", movesPlanChoice, false},
	{"planner.alts_per_op", "count", "lower", "plan", movesPlanChoice, true},
	{"estimator.estimate_us", "us", "lower", "sample", movesSample, false},
	{"estimator.miss_share", "ratio", "lower", "sample", movesSample, false},
	{"estimator.subtree_hit_share", "ratio", "higher", "sample", movesSample, false},
	{"estimator.evictions_per_op", "count", "lower", "sample", movesSample, false},
	{"estimator.overhead_ratio", "ratio", "lower", "sample", "the paper's Fig. 9; nothing gated", true},
	{"predictor.predict_us", "us", "lower", "core", movesPredictor, false},
	{"uaqetp.allocs_per_op", "count", "lower", "uaqetp", "cold_predict ops_per_s", false},
	{"uaqetp.bytes_per_op", "B", "lower", "uaqetp", "cold_predict ops_per_s and peak_rss_mb", false},
	{"uaqetp.parallel_eff", "ratio", "higher", "uaqetp", "cold_predict and plan_choice ops_per_s", false},
	{"executor.execute_cold_us", "us", "lower", "engine", movesNothing, false},
	{"executor.execute_warm_us", "us", "lower", "engine", movesWarmExec, false},
	{"executor.run_hit_share", "ratio", "higher", "engine", movesWarmExec, true},

	// Serving layer: direct calls on a twin server, then the same calls
	// behind its HTTP handler.
	{"serve.submit_us", "us", "lower", "serve", movesServe, false},
	{"serve.predict_us", "us", "lower", "serve", movesServe, false},
	{"serve.step_us", "us", "lower", "serve", movesServe, false},
	{"serve.http_submit_us", "us", "lower", "serve", movesEdge, false},
	{"serve.http_predict_us", "us", "lower", "serve", movesEdge, false},
	{"serve.http_drain_us", "us", "lower", "serve", movesEdge, false},
	{"serve.edge_us", "us", "lower", "serve", movesEdge, false},
	{"serve.admitted", "count", "higher", "serve", movesSim, true},
	{"serve.rejected", "count", "lower", "serve", movesSim, true},
	{"serve.executed", "count", "higher", "serve", movesSim, true},
	{"serve.deadline_met_share", "ratio", "higher", "serve", movesSim, true},
	{"serve.predictions_per_submit", "count", "lower", "serve", movesEdge, true},

	// Front and client.
	{"front.handler_us", "us", "lower", "shard", movesEdge, false},
	{"front.self_us", "us", "lower", "shard", movesEdge, false},
	{"front.shard_calls_per_submit", "count", "lower", "shard", movesEdge, true},
	{"front.shed_predictive", "count", "lower", "shard", movesSim, true},
	{"front.shed_throttled", "count", "lower", "shard", "must be 0", true},
	{"client.submit_us", "us", "lower", "client", movesEdge, false},
	{"client.predict_us", "us", "lower", "client", movesEdge, false},
	{"client.drain_us", "us", "lower", "client", movesEdge, false},
	{"client.lat_p99_ms", "ms", "lower", "client", "informational: too noisy to gate", false},

	// Simulator: counts of the fixed-seed repetition plus its host cost.
	{"sim.events", "count", "higher", "sim", movesSim, true},
	{"sim.arrivals", "count", "higher", "sim", movesSim, true},
	{"sim.executed", "count", "higher", "sim", movesSim, true},
	{"sim.rejected", "count", "lower", "sim", movesSim, true},
	{"sim.shed", "count", "lower", "sim", movesSim, true},
	{"sim.host_us_per_event", "us", "lower", "sim", "1/ops_per_s on the sims", false},
	{"sim.allocs_per_event", "count", "lower", "sim", "both sims' ops_per_s", false},
	{"sim.slo_attainment", "ratio", "higher", "sim", movesSim, true},
	{"sim.cache_hit_share", "ratio", "higher", "sim", movesSim, true},
	{"sim.tier_remote_share", "ratio", "lower", "sim", movesSim, true},
	{"sim.report_bytes", "B", "lower", "sim", movesSim, true},
	{"sim.cov90_err", "ratio", "lower", "sim", movesSim, true},
	{"sim.mape", "ratio", "lower", "sim", movesSim, true},

	// Primitives.
	{"prim.normal_quantile_ns", "ns", "lower", "stats", movesPrim, false},
	{"prim.normal_cdf_ns", "ns", "lower", "stats", movesPrim, false},
	{"prim.lru_get_ns", "ns", "lower", "cache", movesPrim, false},
	{"prim.lru_put_ns", "ns", "lower", "cache", movesPrim, false},
	{"prim.calib_observe_ns", "ns", "lower", "calib", movesPrim, false},
	{"prim.rng_norm_ns", "ns", "lower", "rng", movesPrim, false},
	{"prim.query_json_ns", "ns", "lower", "json", movesPrim, false},

	// The harness itself.
	{"trace.overhead_share", "ratio", "lower", "harness", "the price of the traced run", false},
	{"trace.stage_share", "ratio", "higher", "harness", "stage spans over request spans; below 0.95 the trace is missing a stage", false},
	{"fail_share", "ratio", "lower", "harness", "failed over attempted in the traced run; must be 0", true},
}

// metricTable lists, in table order, the names and units of the metrics
// a run reports: the per-layer ones when traced, else the end-to-end ones.
func metricTable(trace bool) (names, units []string) {
	if trace {
		for _, m := range perLayer {
			names, units = append(names, m.Name), append(units, m.Unit)
		}
		return names, units
	}
	for _, m := range endToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	return names, units
}
