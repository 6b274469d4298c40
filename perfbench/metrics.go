package main

// endToEndMetric is one gated metric of an untraced run. Every workload
// reports every one of them, so each is defined for all four op shapes:
// an op is a write half (the step that changes what the session holds)
// followed by a read half (the queries answered from it).
type endToEndMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is the metric set BENCHMARK.json declares under "end_to_end".
// A bound is the share of the parent's median by which a metric may worsen.
// On a shared 2-vCPU host the timings spread by about 0.1 (quartile
// distance over median, ten seeds) and drift by more between sessions, so
// they get bounds near the 0.25 cap, set-up time the largest; the live
// heap repeats to within 0.01.
var endToEnd = []endToEndMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.24},
	{"op_p50_ms", "ms", "lower", 0.24},
	{"write_p50_ms", "ms", "lower", 0.24},
	{"read_p50_ms", "ms", "lower", 0.24},
	{"heap_live_mib", "MiB", "lower", 0.1},
}

// layerMetric is one per-layer metric of the traced run, with the
// workload whose end-to-end metrics it should move. Times carry a .ms/.s
// suffix; the other metrics are exact counts or ratios.
type layerMetric struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Workload string   `json:"workload"`
	Moves    []string `json:"moves"`
}

var (
	movesSetup = []string{"setup_s"}
	movesWrite = []string{"write_p50_ms", "op_p50_ms", "ops_per_s"}
	movesRead  = []string{"read_p50_ms", "op_p50_ms", "ops_per_s"}
	movesGo    = []string{"ops_per_s", "heap_live_mib"}
	movesWire  = []string{"write_p50_ms", "read_p50_ms"}
	movesNone  = []string{} // bookkeeping of the traced run itself
)

// perLayer is the metric set BENCHMARK.json declares under "per_layer",
// in the order the traced run reports it. Names are prefixed with their
// workload, because the same layer call means different work in each.
var perLayer = []layerMetric{
	{"analyze.engine.new_ms", "ms", "lower", "analyze", movesWrite},
	{"analyze.core.zeta_ms", "ms", "lower", "analyze", movesRead},
	{"analyze.core.phi_ms", "ms", "lower", "analyze", movesRead},
	{"analyze.sinr.affectance_ms", "ms", "lower", "analyze", movesRead},
	{"analyze.capacity.algorithm1_ms", "ms", "lower", "analyze", movesRead},
	{"analyze.schedule.schedule_ms", "ms", "lower", "analyze", movesRead},
	{"analyze.sinr.validate_ms", "ms", "lower", "analyze", movesRead},
	{"analyze.go.alloc_mib_per_op", "MiB", "lower", "analyze", movesGo},
	{"analyze.go.gc_cycles_per_op", "count", "lower", "analyze", movesGo},
	{"analyze.traced.op_p50_ms", "ms", "lower", "analyze", movesNone},
	{"analyze.span_coverage_pct", "%", "higher", "analyze", movesNone},

	{"churn.environment.build_s", "s", "lower", "churn", movesSetup},
	{"churn.core.zeta_tracker_s", "s", "lower", "churn", movesSetup},
	{"churn.core.phi_tracker_s", "s", "lower", "churn", movesSetup},
	{"churn.server.create_s", "s", "lower", "churn", movesSetup},
	{"churn.server.write_rtt_ms", "ms", "lower", "churn", movesWrite},
	{"churn.engine.update_ms", "ms", "lower", "churn", movesWrite},
	{"churn.core.zeta_repair_ms", "ms", "lower", "churn", movesWrite},
	{"churn.core.phi_repair_ms", "ms", "lower", "churn", movesWrite},
	{"churn.sinr.patch_ms", "ms", "lower", "churn", movesWrite},
	{"churn.server.write_overhead_ms", "ms", "lower", "churn", movesWrite},
	{"churn.server.read_rtt_ms", "ms", "lower", "churn", movesRead},
	{"churn.engine.read_ms", "ms", "lower", "churn", movesRead},
	{"churn.server.read_overhead_ms", "ms", "lower", "churn", movesRead},
	{"churn.server.req_bytes_per_op", "B", "lower", "churn", movesWire},
	{"churn.server.resp_bytes_per_op", "B", "lower", "churn", movesWire},
	{"churn.go.alloc_mib_per_op", "MiB", "lower", "churn", movesGo},
	{"churn.go.gc_cycles_per_op", "count", "lower", "churn", movesGo},
	{"churn.traced.write_p50_ms", "ms", "lower", "churn", movesNone},
	{"churn.traced.read_p50_ms", "ms", "lower", "churn", movesNone},
	{"churn.span_coverage_pct", "%", "higher", "churn", movesNone},

	{"city.tier.build_s", "s", "lower", "city", movesSetup},
	{"city.geom.candidates_per_row", "count", "lower", "city", movesSetup},
	{"city.geom.exhausted_rows", "count", "lower", "city", movesSetup},
	{"city.core.zeta_sampled_s", "s", "lower", "city", movesSetup},
	{"city.core.sampled_triplets", "count", "lower", "city", movesSetup},
	{"city.tier.row_ms", "ms", "lower", "city", movesWrite},
	{"city.sinr.affectance_ms", "ms", "lower", "city", movesWrite},
	{"city.capacity.algorithm1_ms", "ms", "lower", "city", movesRead},
	{"city.schedule.schedule_ms", "ms", "lower", "city", movesRead},
	{"city.sinr.validate_ms", "ms", "lower", "city", movesRead},
	{"city.tier.total_bytes", "B", "lower", "city", []string{"heap_live_mib"}},
	{"city.go.alloc_mib_per_op", "MiB", "lower", "city", movesGo},
	{"city.go.gc_cycles_per_op", "count", "lower", "city", movesGo},
	{"city.traced.op_p50_ms", "ms", "lower", "city", movesNone},
	{"city.span_coverage_pct", "%", "higher", "city", movesNone},

	{"scale-out.remote.new_s", "s", "lower", "scale-out", movesSetup},
	{"scale-out.remote.sync_bytes", "B", "lower", "scale-out", movesSetup},
	{"scale-out.remote.tracker_s", "s", "lower", "scale-out", movesSetup},
	{"scale-out.remote.update_ms", "ms", "lower", "scale-out", movesWrite},
	{"scale-out.shard.update_ms", "ms", "lower", "scale-out", movesWrite},
	{"scale-out.engine.update_ms", "ms", "lower", "scale-out", movesWrite},
	{"scale-out.remote.wire_bytes_per_op", "B", "lower", "scale-out", movesWrite},
	{"scale-out.remote.affectance_ms", "ms", "lower", "scale-out", movesRead},
	{"scale-out.shard.affectance_ms", "ms", "lower", "scale-out", movesRead},
	{"scale-out.sinr.affectance_ms", "ms", "lower", "scale-out", movesRead},
	{"scale-out.go.alloc_mib_per_op", "MiB", "lower", "scale-out", movesGo},
	{"scale-out.go.gc_cycles_per_op", "count", "lower", "scale-out", movesGo},
	{"scale-out.traced.write_p50_ms", "ms", "lower", "scale-out", movesNone},
	{"scale-out.traced.read_p50_ms", "ms", "lower", "scale-out", movesNone},
	{"scale-out.span_coverage_pct", "%", "higher", "scale-out", movesNone},
}
