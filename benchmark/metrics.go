package main

import "pcoup/internal/sim"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names with their regression bounds; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are what a user of the system sees, reported by every
// untraced run. A job is one sweep cell on the sweeps and one request
// (submit → checked result) on the service loops. Times are normalized
// to the reference host speed (see calib.go).
var e2eMetrics = []metricDef{
	{"jobs_per_s", "jobs/s", "higher"},
	{"latency_mean_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// layerMetrics are reported by every traced run. A layer a workload
// does not reach reports 0.
var layerMetrics = append([]metricDef{
	{"sexpr.parse_us", "us", "lower"},
	{"compiler.compile_ms", "ms", "lower"},
	{"compiler.bounded_compile_ms", "ms", "lower"},
	{"sim.new_us", "us", "lower"},
	{"sim.run_us", "us", "lower"},
	{"sim.run_share", "frac", "lower"},
	{"sim.run_ns_per_cycle", "ns/cycle", "lower"},
	{"sim.run_ns_per_cycle.SEQ", "ns/cycle", "lower"},
	{"sim.run_ns_per_cycle.STS", "ns/cycle", "lower"},
	{"sim.run_ns_per_cycle.TPE", "ns/cycle", "lower"},
	{"sim.run_ns_per_cycle.Coupled", "ns/cycle", "lower"},
	{"sim.run_ns_per_cycle.Ideal", "ns/cycle", "lower"},
	{"sim.run_ns_per_busy_cycle.inorder", "ns/cycle", "lower"},
	{"sim.run_ns_per_busy_cycle.dyn", "ns/cycle", "lower"},
	{"sim.skipped_frac", "frac", "higher"},
	{"sim.allocs_per_cycle", "allocs/cycle", "lower"},
	{"bench.verify_us", "us", "lower"},
	{"oracle.run_us", "us", "lower"},
	{"parexec.busy_frac", "frac", "higher"},
	{"parexec.span_ms", "ms", "lower"},
	{"parexec.bound_ratio", "ratio", "lower"},
	{"client.http_ms", "ms", "lower"},
	{"fleet.submit_ms", "ms", "lower"},
	{"fleet.wait_ms", "ms", "lower"},
	{"fleet.overhead_ms", "ms", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.stream_ms", "ms", "lower"},
	{"service.cache_ms", "ms", "lower"},
	{"service.queue_ms", "ms", "lower"},
	{"service.run_ms", "ms", "lower"},
	{"service.cache_hit_ratio", "frac", "higher"},
	{"service.cache_evictions", "count", "lower"},
	{"fleet.affinity_hit_ratio", "frac", "higher"},
	{"fleet.peer_fill_hits", "count", "higher"},
	{"fleet.steals", "count", "lower"},
	{"fleet.hedges_fired", "count", "lower"},
	{"fleet.failovers", "count", "lower"},
	{"service.jobs_retained", "count", "lower"},
	{"fleet.jobs_retained", "count", "lower"},
	{"client.rate_decay", "ratio", "higher"},
	{"sim.cycles", "count", "lower"},
	{"sim.ops", "count", "lower"},
	{"memsys.refs", "count", "lower"},
	{"memsys.miss_frac", "frac", "lower"},
	{"interconnect.wb_retries", "count", "lower"},
	{"dynsched.mispredict_rate", "frac", "lower"},
	{"dynsched.prefetch_coverage", "frac", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
}, stallMetrics()...)

func stallMetrics() []metricDef {
	var out []metricDef
	for _, c := range sim.StallCauses() {
		better := "lower"
		if c == sim.CauseIssued {
			better = "higher"
		}
		out = append(out, metricDef{"sim.stall_frac." + c.String(), "frac", better})
	}
	return out
}

func metricUnits(defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}
