package main

// perLayer declares the per-layer metrics a traced run reports, layer =
// module name. Each is obtained from outside the layer: by timing calls
// into its public functions in the stage replay, or by reading its public
// Stats(). `*_ns_*` and `*_ms_per_*` figures are process CPU time charged
// while the stage ran single-threaded; `*_ms_p50` are wall times per call;
// `*_allocs`/`*_bytes` are MemStats deltas. A layer the workload does not
// use reports 0. They carry no bound.
var perLayer = layerDefs(
	// flowserve: the socket and HTTP faces.
	"flowserve.socket_ns_per_record", "ns", "lower",
	"flowserve.http_ns_per_query", "ns", "lower",
	"flowserve.http_allocs_per_query", "count", "lower",
	"flowserve.roundtrip_ns_per_query", "ns", "lower",
	"flowserve.conns_accepted", "count", "lower",
	"flowserve.conns_rejected", "count", "lower",
	"flowserve.disconnects", "count", "lower",
	"flowserve.shed", "count", "lower",
	"flowserve.rate_limited", "count", "lower",
	"flowserve.bad_requests", "count", "lower",
	// flowsource: frame decode and batching.
	"flowsource.decode_ns_per_record", "ns", "lower",
	"flowsource.decode_allocs_per_record", "count", "lower",
	"flowsource.decode_bytes_per_record", "bytes", "lower",
	"flowsource.batch_ns_per_record", "ns", "lower",
	"flowsource.batch_allocs_per_record", "count", "lower",
	"flowsource.batches", "count", "lower",
	"flowsource.peak_queued", "count", "lower",
	"flowsource.dropped", "count", "lower",
	"flowsource.truncated", "count", "lower",
	// datastore: shard fold and seal.
	"datastore.fold_ns_per_record", "ns", "lower",
	"datastore.fold_allocs_per_record", "count", "lower",
	"datastore.fold_bytes_per_record", "bytes", "lower",
	"datastore.seal_ms_per_epoch", "ms", "lower",
	"datastore.seal_allocs_per_epoch", "count", "lower",
	// flowtree: the summary itself.
	"flowtree.addbatch_ns_per_record", "ns", "lower",
	"flowtree.compress_ns_per_node", "ns", "lower",
	"flowtree.merge_ns_per_node", "ns", "lower",
	"flowtree.clone_ns_per_node", "ns", "lower",
	"flowtree.clone_bytes_per_node", "bytes", "lower",
	"flowtree.topk_ns_per_node", "ns", "lower",
	"flowtree.encode_ns_per_node", "ns", "lower",
	"flowtree.encode_delta_ns_per_node", "ns", "lower",
	"flowtree.decode_ns_per_node", "ns", "lower",
	"flowtree.decode_delta_ns_per_node", "ns", "lower",
	"flowtree.wire_bytes_per_node", "bytes", "lower",
	"flowtree.delta_bytes_ratio", "ratio", "lower",
	// flowstream: the site -> central export machine.
	"flowstream.endepoch_ms_p50", "ms", "lower",
	"flowstream.drain_ms_p50", "ms", "lower",
	"flowstream.export_self_ms_per_epoch", "ms", "lower",
	"flowstream.pending_exports_max", "count", "lower",
	"flowstream.dropped_exports", "count", "lower",
	"flowstream.wal_seal_errors", "count", "lower",
	// simnet: the virtual WAN.
	"simnet.transfer_bytes", "bytes", "lower",
	"simnet.attempts", "count", "lower",
	"simnet.failures", "count", "lower",
	"simnet.virtual_ms_per_epoch", "ms", "lower",
	"simnet.transfer_ns_per_call", "ns", "lower",
	// flowdb: index, memo cache, standing views.
	"flowdb.insert_ms_per_epoch", "ms", "lower",
	"flowdb.view_maint_ms_per_epoch", "ms", "lower",
	"flowdb.select_cold_ms_p50", "ms", "lower",
	"flowdb.select_cold_allocs", "count", "lower",
	"flowdb.select_warm_ms_p50", "ms", "lower",
	"flowdb.select_warm_allocs", "count", "lower",
	"flowdb.select_warm_bytes", "bytes", "lower",
	"flowdb.cache_hit_ratio", "ratio", "higher",
	"flowdb.coalesced", "count", "higher",
	"flowdb.trees_merged_per_query", "count", "lower",
	"flowdb.view_recomputes", "count", "lower",
	"flowdb.rows", "count", "lower",
	// flowql: parse, operator, JSON.
	"flowql.parse_ns_per_query", "ns", "lower",
	"flowql.operate_ns_per_query", "ns", "lower",
	"flowql.json_ns_per_query", "ns", "lower",
	"flowql.json_allocs_per_query", "count", "lower",
	"flowql.json_bytes_per_query", "bytes", "lower",
	// federation: the second copy of the uplink machine.
	"federation.ingest_ns_per_record", "ns", "lower",
	"federation.endepoch_ms_p50", "ms", "lower",
	"federation.drain_ms", "ms", "lower",
	"federation.reexport_frames", "count", "lower",
	"federation.pending_exports_max", "count", "lower",
	"federation.dropped_frames", "count", "lower",
	"federation.dropped_exports", "count", "lower",
	"federation.wan_bytes_per_epoch", "bytes", "lower",
	// storage: the write-ahead journal.
	"storage.wal_append_ns_per_record", "ns", "lower",
	"storage.wal_bytes_per_record", "bytes", "lower",
	"storage.wal_seal_ms", "ms", "lower",
	"storage.wal_records", "count", "lower",
	"storage.spilled_epochs", "count", "lower",
	"storage.spill_errors", "count", "lower",
	// client: the load generator's own view, medians and tails.
	"client.query_ms_p50", "ms", "lower",
	"client.query_ms_p99", "ms", "lower",
	"client.query_ms_max", "ms", "lower",
	"client.epoch_fresh_ms_p50", "ms", "lower",
	"client.epoch_fresh_ms_p99", "ms", "lower",
	"client.notify_ms_p50", "ms", "lower",
	"client.notify_ms_p99", "ms", "lower",
	"client.send_lag_ms_p99", "ms", "lower",
	"client.samples", "count", "higher",
	"client.offered_records_per_s", "records/s", "higher",
	// runtime: the Go runtime under the timed section.
	"runtime.cpu_s", "s", "lower",
	"runtime.cpu_us_per_record", "us", "lower",
	"runtime.gc_cycles", "count", "lower",
	"runtime.gc_pause_ms_total", "ms", "lower",
	"runtime.heap_peak_mb", "MiB", "lower",
	"runtime.allocs_per_record", "count", "lower",
	"runtime.allocs_per_query", "count", "lower",
	// ledger: how much of the traced end-to-end figure the stages explain.
	"ledger.ingest_coverage", "ratio", "higher",
	"ledger.seal_coverage", "ratio", "higher",
	"ledger.query_coverage", "ratio", "higher",
	"ledger.trace_overhead", "ratio", "lower",
)

func layerDefs(triples ...string) []metricDef {
	defs := make([]metricDef, 0, len(triples)/3)
	for i := 0; i+2 < len(triples); i += 3 {
		defs = append(defs, metricDef{Name: triples[i], Unit: triples[i+1], Better: triples[i+2]})
	}
	return defs
}
