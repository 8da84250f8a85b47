package main

// metricDef describes one reported metric. BENCHMARK.json repeats these
// tables for the driver; blast_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the baseline
}

// endToEnd is what a user of stat4d sees. Every workload reports every one:
// each run has a bulk phase (pps, cpu_ns_per_pkt) and a burst phase
// (burst_p10_us). The bounds are what a two-vCPU VM with noisy neighbours can
// resolve, set by the two-shard workloads; bench/README.md has the spreads.
var endToEnd = []metricDef{
	{"pps", "1/s", "higher", 0.25},
	{"cpu_ns_per_pkt", "ns", "lower", 0.25},
	{"burst_p10_us", "us", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is named <module>.<metric>; proc, traffic, budget and trace are
// the process, the generator, the roll-up and the cost of looking.
var perLayer = []metricDef{
	{"packet.parse_ns", "ns", "lower", 0},
	{"packet.serialize_ns", "ns", "lower", 0},
	{"packet.parse_err_frac", "count", "lower", 0},
	{"ring.append_ns", "ns", "lower", 0},
	{"ring.iter_ns", "ns", "lower", 0},
	{"ring.mpsc_pushpop_ns", "ns", "lower", 0},
	{"ring.slab_acqrel_ns", "ns", "lower", 0},
	{"ring.park_wake_us", "us", "lower", 0},
	{"p4.process_packet_ns", "ns", "lower", 0},
	{"p4.process_frame_ns", "ns", "lower", 0},
	{"p4.observer_ns", "ns", "lower", 0},
	{"p4.flowkey_ns", "ns", "lower", 0},
	{"p4.sharded_batch_ns", "ns", "lower", 0},
	{"p4.handoff_overhead_ns", "ns", "lower", 0},
	{"p4.shard_speedup", "x", "higher", 0},
	{"p4.handoff_small_us", "us", "lower", 0},
	{"p4.digests_per_kpkt", "1/kpkt", "lower", 0},
	{"p4.digest_drops", "count", "lower", 0},
	{"p4.recirc_per_kpkt", "1/kpkt", "lower", 0},
	{"p4.shard_skew", "x", "lower", 0},
	{"p4.snapshot_ms", "ms", "lower", 0},
	{"stat4p4.build_ms", "ms", "lower", 0},
	{"stat4p4.bind_us", "us", "lower", 0},
	{"stat4p4.merged_snapshot_ms", "ms", "lower", 0},
	{"stat4p4.merged_flows_ms", "ms", "lower", 0},
	{"flowtable.touch_ns", "ns", "lower", 0},
	{"flowtable.emitted_over_native", "x", "lower", 0},
	{"ingest.producer_ns", "ns", "lower", 0},
	{"ingest.serveconn_ns", "ns", "lower", 0},
	{"ingest.socket_ns", "ns", "lower", 0},
	{"ingest.frames_per_batch", "count", "higher", 0},
	{"ingest.ring_depth_p50", "count", "lower", 0},
	{"ingest.ring_depth_max", "count", "lower", 0},
	{"ingest.blocks_in_use_max", "count", "lower", 0},
	{"ingest.shed_frac", "count", "lower", 0},
	{"ingest.do_us", "us", "lower", 0},
	{"telemetry.writeprom_ms", "ms", "lower", 0},
	{"telemetry.hist_observe_ns", "ns", "lower", 0},
	{"traffic.write_ns", "ns", "lower", 0},
	{"traffic.window_full_frac", "count", "higher", 0},
	{"proc.allocs_per_kpkt", "1/kpkt", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.cores_busy", "count", "lower", 0},
	{"proc.ctx_switch_per_kpkt", "1/kpkt", "lower", 0},
	{"proc.burst_p50_us", "us", "lower", 0},
	{"proc.burst_p90_us", "us", "lower", 0},
	{"proc.burst_p99_us", "us", "lower", 0},
	{"proc.burst_p999_us", "us", "lower", 0},
	{"budget.staged_sum_ns", "ns", "lower", 0},
	{"budget.unattributed_ns", "ns", "lower", 0},
	{"budget.parse_gap_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object a run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill turns measured numbers into the result's metric map, insisting that
// the run produced exactly the metrics defs promises.
func (r *result) fill(defs []metricDef, got map[string]float64) {
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			panic("blast: run did not measure " + d.Name)
		}
		r.Metrics[d.Name] = value{v, d.Unit}
	}
	if len(got) != len(defs) {
		panic("blast: run measured a metric missing from the tables")
	}
}
