package main

import "strings"

// The benchmark's vocabulary: workload names, metric names, units,
// directions and regression bounds. BENCHMARK.json at the repository
// root mirrors the parts of this table every workload emits (the
// driver's contract wants one uniform metric list); smoke_test.go
// fails when the two drift apart.

// Workload names are fixed: later issues cite them.
const (
	wPaper = "paper_n8"
	wCold  = "serve_cold_mix"
	wHot   = "serve_hot_batch"
	wFleet = "fleet_cold_mix"
	wWhale = "whale_n20"
)

type workloadDef struct {
	name string
	what string // what runs
	why  string // why it exists (one line, copied into BENCHMARK.json)
}

var workloads = []workloadDef{
	{wPaper,
		"library calls, 1 client: seeded 8-node Erdős–Rényi MaxCut graphs × depths 2–5 × {lbfgsb, neldermead, slsqp, cobyla} × {naive, two-level}",
		"paper Table I regime: 256-amplitude states, so optimize, ml, allocation and the materialized small-n qaoa path do the work and the parallel/streaming kernels do none"},
	{wCold,
		"loopback HTTP into one server, nproc closed-loop clients, unique specs (0 % cache hits): five families, n 8–14, depth 2–3, naive/two-level, lbfgsb/slsqp, 1 op in 8 followed over SSE",
		"whole request path with the solver actually running: decode, compile, fingerprint, kernel build, admission, queue, solve, readout, encode, SSE"},
	{wHot,
		"same server, nproc closed-loop clients, Zipf draws over a 288-spec n=8 depth-2 pool against the 256-entry LRU; 3 of 4 requests single, 1 of 4 a 16-item batch",
		"same server layer used the other way (cache reads, single-flight, batch dedup, JSON, fingerprinting) with the kernels nearly idle"},
	{wFleet,
		"the identical op list and seed as serve_cold_mix, sent to an in-process coordinator (WAL + dispatcher, no cache) fronting two loopback workers",
		"price of a hop and of an fsync'd 202: journal fsync under the submission lock, consistent-hash dispatch, SSE relay; result digest must equal serve_cold_mix's"},
	{wWhale,
		"library calls, 1 client, GOMAXPROCS = nproc: two-level depth-2 lbfgsb MaxCut solves of seeded 3-regular graphs at n=20 (16 MB state, streaming kernel) with a shared arena",
		"kernel sweep + adjoint gradient are > 95 % of the time: the only workload where fused/parallel/streaming kernel work, or merging the two stream kernels, can show or hurt"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

type metricDef struct {
	name   string
	unit   string
	higher bool    // true: higher is better
	bound  float64 // share of the baseline it may worsen by (end-to-end only)
	exact  bool    // repeats exactly for one (seed, seconds): any difference is flagged by -compare
	info   bool    // printed and stored, never gated
	note   string  // definition, or for a layer metric the end-to-end metric it should move
}

// endToEnd lists the metrics of BENCHMARK.json's end_to_end: every
// workload reports them with tracing off, none is ever 0, and each must
// hold its bound across seeds — the driver compares runs of different
// seeds, so a bound has to clear the seed-to-seed spread, not only the
// same-seed A/A noise. Bounds are shares of the baseline, at least three
// times the measured spread over ten seeds (README.md, "Measured
// spread"). The two timings are in reference-speed seconds
// (hostclock.go): against the wall clock this shared 2-core host moves
// them ±30 % from one minute to the next.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, note: "median of the set-up repetitions, in reference-speed seconds: instance generation, datagen, training, server/fleet boot, cache warm-up"},
	{name: "solves_per_s", unit: "1/s", higher: true, bound: 0.25, note: "verified-done solve items ÷ timed section in reference-speed seconds"},
	{name: "nfev_per_solve", unit: "count", bound: 0.25, exact: true, note: "mean optimizer objective calls per distinct cold solve (the paper's FC)"},
	{name: "ar_mean", unit: "ratio", higher: true, bound: 0.10, exact: true, note: "mean approximation ratio of returned solutions"},
}

// programOnly end-to-end metrics are printed, written to the result
// file and gated by -compare like the others, but are not in
// BENCHMARK.json. fail_share is 0 on a healthy run (the contract wants
// metrics that are never 0) and reaches the driver as failed/attempted;
// fc_reduction_pct exists on paper_n8 only. The two latency metrics
// were demoted rather than given a wider bound: over four sets of ten
// seeds their spread reached 25 % (solve_p50_ms, serve_hot_batch) and
// 30 % (solve_p95_ms, fleet_cold_mix), at or past the largest bound the
// contract allows, and in a closed loop solves_per_s already moves with
// the mean latency.
var programOnly = []metricDef{
	{name: "solve_p50_ms", unit: "ms", bound: 0.25, note: "median per-request latency (library call, or send → decoded reply / terminal SSE event; single-solve requests only)"},
	{name: "solve_p95_ms", unit: "ms", bound: 0.25, note: "p95 of the same latencies; interpolated, and noted as such, below 200 samples"},
	{name: "fail_share", unit: "ratio", bound: 0, exact: true, note: "(transport errors + non-200 + 429 + failed/cancelled jobs + outputs failing verification) ÷ items attempted; any increase is a regression"},
	{name: "fc_reduction_pct", unit: "%", higher: true, bound: 1.0, exact: true, note: "paper_n8 only: 100·(1 − ΣFC two-level ÷ ΣFC naive) over paired cells; bound is absolute points"},
	{name: "setup_raw_s", unit: "s", info: true, note: "setup_s in wall-clock seconds, uncorrected for host speed"},
	{name: "solves_per_s_raw", unit: "1/s", higher: true, info: true, note: "solves_per_s against the wall clock, uncorrected for host speed"},
	{name: "host_speed", unit: "ratio", higher: true, info: true, note: "reference-speed seconds ÷ wall seconds over the timed section: 1 = the reference host at rest"},
}

// allEndToEnd is every end-to-end metric the program prints and
// -compare gates, BENCHMARK.json's first.
func allEndToEnd() []metricDef {
	return append(append([]metricDef{}, endToEnd...), programOnly...)
}

// p95Note opens the note a result carries when solve_p95_ms has fewer
// than ten samples beyond it; -check looks for it.
const p95Note = "solve_p95_ms: "

// Optimizers, problem families and size classes the ladder iterates.
var (
	optimizerNames = []string{"lbfgsb", "neldermead", "slsqp", "cobyla"}
	mixFamilies    = []string{"maxcut", "qubo", "maxksat", "partition", "portfolio"}
)

// perLayer lists the layer metrics every traced run emits (the ladder
// is the same fixed probe set on every workload, so each name has one
// definition). note = the end-to-end metric it should move and where.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit string, higher bool, note string) {
		m = append(m, metricDef{name: name, unit: unit, higher: higher, note: note})
	}
	whale := "solves_per_s, solve_p50_ms on whale_n20; — on serve_hot_batch"
	paper := "solves_per_s, solve_p50_ms on paper_n8"
	cold := "solve_p50_ms on serve_cold_mix / fleet_cold_mix"
	hot := "solves_per_s, solve_p50_ms on serve_hot_batch; — on paper_n8, whale_n20"
	fleet := "solve_p50_ms, solves_per_s on fleet_cold_mix only"

	add("quantum.triad_gbps", "GB/s", true, "roofline reference (STREAM triad, array and LLC sizes in the host block)")
	add("quantum.sweep_ns_per_amp.n8", "ns", false, paper)
	add("quantum.sweep_ns_per_amp.n20", "ns", false, whale)
	add("quantum.sweep_computed_gbps", "GB/s", true, "computed: 32 B × amplitudes ÷ n20 sweep time; "+whale)
	add("quantum.roofline_share", "ratio", true, "computed ÷ triad; "+whale)
	add("quantum.sharded_vs_flat_ratio", "ratio", false, "ShardedState.Layer (2 shard bits) ÷ flat, n20; "+whale)
	add("quantum.reduce_ns_per_amp", "ns", false, whale)
	add("quantum.amp_bytes_allocated", "B", false, "counter delta over the timed section; solves_per_s on serve_* (arena reuse)")

	for _, n := range []string{"n8", "n14", "n20"} {
		add("qaoa.new_ms_p50."+n, "ms", false, cold+" (every cold request builds a kernel); — on whale_n20")
	}
	add("qaoa.expect_ns_per_amp_layer.n8", "ns", false, paper)
	add("qaoa.expect_ns_per_amp_layer.n14", "ns", false, cold)
	add("qaoa.expect_ns_per_amp_layer.n20", "ns", false, whale)
	add("qaoa.valuegrad_over_expect.n8", "ratio", false, paper)
	add("qaoa.valuegrad_over_expect.n20", "ratio", false, whale)
	add("qaoa.maxcut_vs_ising_ratio.n20", "ratio", false, "streamKernel ÷ isingStreamKernel on one graph; "+whale)
	add("qaoa.eval_allocs_per_op", "count", false, "expected 0; "+paper)
	add("qaoa.arena_reuse_rate", "ratio", true, "solves_per_s on serve_cold_mix")
	add("qaoa.batch_evals_per_s", "1/s", true, paper)

	for _, o := range optimizerNames {
		add("optimize.self_share."+o, "ratio", false, "solves_per_s on paper_n8; — on whale_n20")
	}
	for _, o := range optimizerNames {
		add("optimize.nfev_per_run."+o, "count", false, "nfev_per_solve everywhere")
	}
	add("optimize.ngev_per_run.lbfgsb", "count", false, "nfev_per_solve everywhere")
	for _, o := range optimizerNames {
		add("optimize.iters_per_run."+o, "count", false, "nfev_per_solve everywhere")
	}
	add("optimize.run_ms_p50", "ms", false, paper)

	add("ml.predict_us_p50", "us", false, "solve_p50_ms on paper_n8")
	add("ml.train_ms", "ms", false, "setup_s")
	add("ml.train_rows", "count", false, "setup_s")

	add("core.datagen_s", "s", false, "setup_s")
	add("core.datagen_nfev", "count", false, "setup_s")
	for _, n := range []string{"n8", "n20"} {
		for _, part := range []string{"level1", "predict", "level2", "other"} {
			add("core."+part+"_share."+n, "ratio", false, "solve_p50_ms on paper_n8 (n8) and whale_n20 (n20)")
		}
	}
	add("core.naive_ms_p50", "ms", false, paper)
	add("core.twolevel_ms_p50", "ms", false, paper)
	add("core.fc_reduction_pct", "%", true, "fc_reduction_pct on paper_n8 (ladder sample: 16 graphs × depths 2–5, lbfgsb)")

	for _, f := range mixFamilies {
		add("problem.compile_us_p50."+f, "us", false, hot)
	}
	for _, f := range mixFamilies {
		add("problem.fingerprint_us_p50."+f, "us", false, hot)
	}

	add("server.http_overhead_ms_p50", "ms", false, cold)
	add("server.queue_wait_ms_p50", "ms", false, "solve_p95_ms on serve_cold_mix")
	add("server.queue_wait_ms_p95", "ms", false, "solve_p95_ms on serve_cold_mix")
	add("server.run_ms_p50", "ms", false, cold)
	add("server.cache_hit_rate", "ratio", true, hot)
	add("server.coalesced_share", "ratio", true, hot)
	add("server.batch_deduped_share", "ratio", true, hot)
	add("server.rejected_share", "ratio", false, "fail_share on serve_*")
	add("server.arena_reuse_rate", "ratio", true, "solves_per_s on serve_cold_mix")
	add("server.hot_req_us_p50", "us", false, hot)
	add("server.batch_item_us", "us", false, hot)
	add("server.req_bytes_p50", "B", false, hot)
	add("server.resp_bytes_p50", "B", false, hot)
	add("server.sse_ttfe_ms_p50", "ms", false, cold)
	add("server.sse_events_per_job", "count", false, cold)

	add("cluster.wal_accept_ms_p50", "ms", false, fleet)
	add("cluster.wal_accept_ms_p95", "ms", false, "solve_p95_ms on fleet_cold_mix only")
	add("cluster.wal_complete_ms_p50", "ms", false, fleet)
	add("cluster.wal_bytes_per_job", "B", false, fleet)
	add("cluster.wal_replay_ms", "ms", false, "setup_s of a restarted coordinator")
	add("cluster.wal_replay_jobs", "count", false, "setup_s of a restarted coordinator")
	add("cluster.dispatch_ms_p50", "ms", false, fleet)
	add("cluster.ring_balance", "ratio", false, "solve_p95_ms on fleet_cold_mix only")
	add("cluster.remote_cache_hits", "count", true, fleet)

	add("telemetry.memory_vs_nop_pct", "%", false, "solves_per_s on paper_n8 / serve_hot_batch (guard for per-job tracing)")
	add("telemetry.span_ns", "ns", false, "solves_per_s on serve_hot_batch")
	add("telemetry.count_ns", "ns", false, "solves_per_s on serve_hot_batch")
	add("telemetry.observe_ns", "ns", false, "solves_per_s on serve_hot_batch")

	add("process.peak_rss_mb", "MB", false, "memory of the whole run")
	add("process.cpu_util", "ratio", true, "rusage user+sys ÷ wall ÷ nproc over the timed section")
	add("process.mallocs_per_solve", "count", false, "solves_per_s on paper_n8 / serve_hot_batch")
	add("process.gc_pause_ms_total", "ms", false, "solve_p95_ms on serve_*")
	add("bench.trace_overhead_pct", "%", false, "traced vs untraced solves_per_s of this workload")
	return m
}

// insituPrefix marks the same server.* / cluster.* definitions taken on
// the workload's own traced pass (serving workloads only) instead of on
// the ladder's fixed miniature mixes. Printed and written to the result
// file; not in BENCHMARK.json because library workloads have none.
const insituPrefix = "insitu."

// quantum.parallel_speedup is program-only too: it is omitted, not
// derived, when GOMAXPROCS > NumCPU or nproc < 2, and the driver wants
// every listed metric on every run.
const parallelSpeedup = "quantum.parallel_speedup"

// layerDef resolves a layer metric as a traced run names it: a ladder
// metric, the same under insituPrefix, or quantum.parallel_speedup.
func layerDef(name string) (metricDef, bool) {
	if name == parallelSpeedup {
		return metricDef{name: name, unit: "ratio", higher: true}, true
	}
	return findMetric(perLayer, strings.TrimPrefix(name, insituPrefix))
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
