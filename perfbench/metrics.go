package main

// The metric registry. BENCHMARK.json at the repository root lists the
// same names; METRICS.md says what each one means and which end-to-end
// metric each per-layer metric should move.

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics of the untraced run. Every workload
// reports every one of them: ops_per_s and op_p50_ms/op_p99_ms are the
// workload's user-facing operation. On read_cold and mixed_rw that is
// the query; on ingest_replicated ops_per_s is the acked triples per
// second and op_p50_ms/op_p99_ms the time from a batch's due time until
// it is visible on the replica.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"server_rss_mb", "MiB"},
}

// e2eDefs are the named end-to-end metrics every run prints; a
// workload reports only the ones that apply (others read 0). The
// traced run reports them as e2e.<name> (untraced) and traced.<name>.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"read_qps", "1/s"}, {"read_p50_ms", "ms"}, {"read_p99_ms", "ms"}, {"read_fail_frac", "ratio"},
	{"load_ack_p50_ms", "ms"}, {"load_ack_p99_ms", "ms"}, {"load_triples_per_s", "1/s"},
	{"repl_visible_p50_ms", "ms"}, {"repl_visible_p99_ms", "ms"}, {"load_fail_frac", "ratio"},
	{"server_rss_mb", "MiB"},
}

// layerDefs are the per-layer metrics measured by the traced stack.
var layerDefs = []metricDef{
	{"endpoint.request_self_ms", "ms"},
	{"endpoint.serialize_ms", "ms"},
	{"endpoint.write_ms", "ms"},
	{"endpoint.response_bytes_per_row", "B/row"},
	{"endpoint.cache_hit_ratio", "ratio"},
	{"endpoint.rejected_per_request", "ratio"},
	{"endpoint.alloc_bytes_per_query", "B"},
	{"endpoint.allocs_per_query", "count"},
	{"sparql.parse_ms", "ms"},
	{"geostore.query_ms", "ms"},
	{"geostore.query_after_write_ms", "ms"},
	{"geostore.plan_cache_hit_ratio", "ratio"},
	{"geostore.load_ms", "ms"},
	{"rdf.rows_examined_per_result", "ratio"},
	{"rdf.store_bytes_per_triple", "B"},
	{"storage.wal_commit_ms", "ms"},
	{"storage.fsync_ms", "ms"},
	{"storage.fsyncs_per_load", "ratio"},
	{"storage.ack_to_durable_ms", "ms"},
	{"storage.snapshot_ms", "ms"},
	{"storage.snapshots", "count"},
	{"storage.disk_bytes_per_input_byte", "ratio"},
	{"replication.durable_to_visible_ms", "ms"},
	{"replication.apply_ms", "ms"},
	{"replication.bytes_shipped_per_triple", "B"},
	{"replication.reconnects", "count"},
	{"boot.load_ms", "ms"},
	{"boot.index_build_ms", "ms"},
	{"boot.recover_ms", "ms"},
	{"boot.snapshot_ms", "ms"},
	{"boot.replica_bootstrap_ms", "ms"},
}

// perLayer is everything the traced run reports: the layer metrics,
// the named end-to-end metrics of both runs, the tracing overhead and
// the program's own counters (deltas over the untraced window).
var perLayer = func() []metricDef {
	out := append([]metricDef(nil), layerDefs...)
	for _, d := range e2eDefs {
		out = append(out, metricDef{"e2e." + d.name, d.unit}, metricDef{"traced." + d.name, d.unit})
	}
	for _, n := range []string{"ops_per_s", "op_p50_ms", "op_p99_ms"} {
		out = append(out, metricDef{"trace_overhead." + n, "ratio"})
	}
	for _, f := range counterFamilies {
		out = append(out, metricDef{"count." + f, "count"})
	}
	return out
}()
