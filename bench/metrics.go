package main

// metricDef declares one reported metric. The end-to-end list and the
// per-layer list below are the single source of the names and units the
// benchmark prints; BENCHMARK.json repeats them and the smoke test holds
// the two together.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees. Every workload reports all
// seven in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"allocs_per_op", "1", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer is the layer breakdown, one group per module. A traced run
// (--trace 1) reports every one; a metric that brackets a layer the
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"hw.read_into_ns", "ns", "lower"},
	{"hw.read_into_allocs", "1", "lower"},
	{"hw.set_node_cap_ns", "ns", "lower"},

	{"variorum.get_node_power_ns", "ns", "lower"},
	{"variorum.get_node_power_allocs", "1", "lower"},
	{"variorum.cap_node_ns", "ns", "lower"},

	{"apps.demand_ns", "ns", "lower"},

	{"simtime.event_ns", "ns", "lower"},
	{"simtime.event_allocs", "1", "lower"},

	{"cluster.sim_s_per_wall_s", "s/s", "higher"},
	{"cluster.idle_round_us", "us", "lower"},
	{"cluster.submit_us", "us", "lower"},

	{"sched.dispatch_us", "us", "lower"},
	{"sched.dispatch_allocs", "1", "lower"},
	{"sched.predict_ns", "ns", "lower"},

	{"job.starts_per_op", "1", "higher"},
	{"job.finishes_per_op", "1", "higher"},

	{"kvs.put_get_us", "us", "lower"},

	{"powermon.module_load_ms", "ms", "lower"},
	{"powermon.samples_per_op", "1", "higher"},
	{"powermon.collect_rpc_us", "us", "lower"},
	{"powermon.query_raw_ms", "ms", "lower"},
	{"powermon.query_raw_allocs", "1", "lower"},
	{"powermon.query_agg_ms", "ms", "lower"},

	{"tsdb.append_ns", "ns", "lower"},
	{"tsdb.append_allocs", "1", "lower"},
	{"tsdb.append_bytes", "B", "lower"},
	{"tsdb.maintain_ms", "ms", "lower"},
	{"tsdb.maintain_allocs", "1", "lower"},
	{"tsdb.select_range_ms", "ms", "lower"},
	{"tsdb.select_tier_ms", "ms", "lower"},
	{"tsdb.recover_ms", "ms", "lower"},
	{"tsdb.disk_bytes_per_sample", "B", "lower"},
	{"tsdb.seals_per_ksample", "1", "lower"},
	{"tsdb.unsynced_max", "count", "lower"},

	{"ringbuf.push_ns", "ns", "lower"},
	{"ringbuf.select_range_ns", "ns", "lower"},

	{"msg.encode_ns", "ns", "lower"},
	{"msg.encode_allocs", "1", "lower"},
	{"msg.decode_ns", "ns", "lower"},
	{"msg.decode_allocs", "1", "lower"},
	{"msg.encoded_size_ns", "ns", "lower"},

	{"transport.msgs_per_op", "1", "lower"},
	{"transport.kb_per_op", "KB", "lower"},
	{"transport.root_kb_per_op", "KB", "lower"},
	{"transport.send_self_us", "us", "lower"},

	{"broker.rpc_leaf_us", "us", "lower"},
	{"broker.rpc_leaf_allocs", "1", "lower"},
	{"broker.rpc_per_hop_us", "us", "lower"},
	{"broker.event_publish_us", "us", "lower"},
	{"broker.event_publish_allocs", "1", "lower"},
	{"broker.rpcs_per_op", "1", "lower"},
	{"broker.events_delivered_per_op", "1", "lower"},
	{"broker.rpc_timeouts", "count", "lower"},

	{"reduce.count_ms", "ms", "lower"},
	{"reduce.count_allocs", "1", "lower"},

	{"query.parse_us", "us", "lower"},
	{"query.parse_allocs", "1", "lower"},
	{"query.fold_local_us", "us", "lower"},
	{"query.fold_local_allocs", "1", "lower"},
	{"query.merge_partial_ns", "ns", "lower"},
	{"query.eval_ms", "ms", "lower"},
	{"query.eval_allocs", "1", "lower"},
	{"query.source_read_us", "us", "lower"},

	{"powerapi.hit_us", "us", "lower"},
	{"powerapi.hit_allocs", "1", "lower"},
	{"powerapi.q_ring_ms", "ms", "lower"},
	{"powerapi.q_tier_ms", "ms", "lower"},
	{"powerapi.q_tsdb_ms", "ms", "lower"},
	{"powerapi.job_agg_ms", "ms", "lower"},
	{"powerapi.job_raw_ms", "ms", "lower"},
	{"powerapi.status_ms", "ms", "lower"},
	{"powerapi.cache_hit_ratio", "1", "higher"},
	{"powerapi.coalesce_ratio", "1", "higher"},
	{"powerapi.upstream_per_req", "1", "lower"},
	{"powerapi.errors_5xx", "count", "lower"},
	{"powerapi.sse_write_us_per_frame", "us", "lower"},

	{"fanout.attach_us", "us", "lower"},
	{"fanout.next_ns_per_frame", "ns", "lower"},
	{"fanout.frames_per_event", "1", "higher"},
	{"fanout.deliveries_per_frame", "1", "higher"},
	{"fanout.deliver_ms_p99", "ms", "lower"},
	{"fanout.evictions", "count", "lower"},
	{"fanout.upstream_subs", "count", "lower"},
	{"fanout.publish_half_frac", "1", "lower"},

	{"powermgr.round_ms", "ms", "lower"},
	{"powermgr.set_global_cap_ms", "ms", "lower"},
	{"powermgr.status_ms", "ms", "lower"},
	{"powermgr.retunes_per_op", "1", "lower"},
	{"powermgr.violations_per_op", "1", "lower"},
	{"powermgr.push_failures", "count", "lower"},

	{"fft.period_us", "us", "lower"},
	{"fft.period_allocs", "1", "lower"},

	{"stats.hist_observe_ns", "ns", "lower"},
	{"stats.hist_merge_ns", "ns", "lower"},

	{"run.op_ms_p99", "ms", "lower"},
	{"run.peak_rss_mb", "MB", "lower"},
	{"run.gc_cycles", "count", "lower"},
	{"run.gc_pause_ms_total", "ms", "lower"},
	{"run.measured_wall_s", "s", "lower"},
	{"run.rounds", "count", "higher"},
	{"run.gomaxprocs", "count", "higher"},
	{"run.trace_overhead_frac", "1", "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name during a run; render checks them
// against a declared list so a missing or misspelt metric fails the run
// instead of silently dropping out of the output.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// render returns the values for exactly the declared metrics. Per-layer
// metrics the workload left unset read 0; a value set under a name that
// is not declared is a programming error.
func (m metricSet) render(defs []metricDef) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	var stray []string
	for name := range m {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	return out, stray
}
