package main

// metricDef names one metric the benchmark reports. BENCHMARK.json is
// checked against this table by the package's tests, so the two cannot
// drift.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the baseline's median by which the metric may
	// worsen before -compare calls a regression; 0 marks a per-layer
	// metric, which has no bound.
	bound float64
	// listed marks the end-to-end metrics BENCHMARK.json lists under
	// end_to_end, where the acceptance protocol gates them. Its contract
	// has every run of every workload report every such metric and asks
	// that each repeat well inside its bound, so only metrics that exist
	// on all four workloads and are that steady on each qualify. The
	// others — one workload's own metrics, and tick_p95_ms, whose A/A
	// spread on p1-readpath approaches its bound — are listed there as
	// per-layer and gated by -compare alone.
	listed bool
}

// endToEnd are the user-visible metrics, in the order they print. Every
// timing carries the widest bound BENCHMARK.json's contract allows: on the
// shared 2-core reference box wall-clock medians wander by up to a fifth
// over minutes (README, "End-to-end metrics"). Memory does not.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, listed: true},
	{name: "virt_s_per_wall_s", unit: "ratio", better: "higher", bound: 0.25, listed: true},
	{name: "tick_p50_ms", unit: "ms", better: "lower", bound: 0.25, listed: true},
	{name: "tick_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15, listed: true},
	{name: "commit_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "commit_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "sub_lag_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "sub_lag_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "get_refresh_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "get_hit_p50_us", unit: "us", better: "lower", bound: 0.25},
}

// perLayer are the traced pass's metrics, named <module>.<metric>.
var perLayer = []metricDef{
	{name: "orbit.propagate_ms", unit: "ms", better: "lower"},
	{name: "topo.visindex_update_ms", unit: "ms", better: "lower"},
	{name: "topo.visible_us_per_gst", unit: "us", better: "lower"},
	{name: "constellation.snapshot_ms", unit: "ms", better: "lower"},
	{name: "constellation.diff_ms", unit: "ms", better: "lower"},
	{name: "constellation.repair_ms", unit: "ms", better: "lower"},
	{name: "constellation.cold_snapshot_ms", unit: "ms", better: "lower"},
	{name: "constellation.record_us", unit: "us", better: "lower"},
	{name: "constellation.wire_encode_us", unit: "us", better: "lower"},
	{name: "constellation.wire_decode_us", unit: "us", better: "lower"},
	{name: "constellation.wire_bytes_per_tick", unit: "B", better: "lower"},
	{name: "constellation.diff_links_per_tick", unit: "count", better: "lower"},
	{name: "constellation.patched_edges_per_tick", unit: "count", better: "lower"},
	{name: "constellation.repaired_paths_per_tick", unit: "count", better: "higher"},
	{name: "constellation.repair_fallback_frac", unit: "ratio", better: "lower"},
	{name: "constellation.empty_tick_frac", unit: "ratio", better: "higher"},
	{name: "graph.dijkstra_full_ms", unit: "ms", better: "lower"},
	{name: "graph.query_us", unit: "us", better: "lower"},
	{name: "host.activity_sweep_ms", unit: "ms", better: "lower"},
	{name: "vnet.event_ns", unit: "ns", better: "lower"},
	{name: "vnet.send_ns", unit: "ns", better: "lower"},
	{name: "vnet.msgs_per_tick", unit: "count", better: "higher"},
	{name: "vnet.dropped_frac", unit: "ratio", better: "lower"},
	{name: "coordinator.self_ms", unit: "ms", better: "lower"},
	{name: "hostlink.wire_encode_us", unit: "us", better: "lower"},
	{name: "hostlink.wire_decode_us", unit: "us", better: "lower"},
	{name: "hostlink.frame_bytes_per_tick", unit: "B", better: "lower"},
	{name: "hostlink.commit_wait_p99_ms", unit: "ms", better: "lower"},
	{name: "hostlink.proposals_per_tick", unit: "count", better: "lower"},
	{name: "hostlink.fallback_applies", unit: "count", better: "lower"},
	{name: "hostlink.commit_mismatches", unit: "count", better: "lower"},
	{name: "hostlink.reconnects", unit: "count", better: "lower"},
	{name: "hostlink.hangs", unit: "count", better: "lower"},
	{name: "applyengine.apply_us", unit: "us", better: "lower"},
	{name: "httpapi.frame_build_us", unit: "us", better: "lower"},
	{name: "httpapi.doc_info_us", unit: "us", better: "lower"},
	{name: "httpapi.doc_gst_us", unit: "us", better: "lower"},
	{name: "httpapi.doc_path_us", unit: "us", better: "lower"},
	{name: "readpath.follow_lag_p50_ms", unit: "ms", better: "lower"},
	{name: "readpath.sub_lag_p99_ms", unit: "ms", better: "lower"},
	{name: "readpath.bytes_per_sub_update", unit: "B", better: "lower"},
	{name: "readpath.resyncs", unit: "count", better: "lower"},
	{name: "readpath.reconnects", unit: "count", better: "lower"},
	{name: "readpath.tick_late_frac", unit: "ratio", better: "lower"},
	{name: "scenario.parse_ms", unit: "ms", better: "lower"},
	{name: "scenario.new_runner_ms", unit: "ms", better: "lower"},
	{name: "scenario.report_ms", unit: "ms", better: "lower"},
	{name: "scenario.allocs_per_tick", unit: "count", better: "lower"},
	{name: "scenario.alloc_kb_per_tick", unit: "KiB", better: "lower"},
	{name: "scenario.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
}

// lookupDef finds a metric in one of the tables.
func lookupDef(table []metricDef, name string) (metricDef, bool) {
	for _, d := range table {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
