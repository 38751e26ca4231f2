package main

// metric is one measured value. N is the sample count behind a
// percentile or mean (0 for counts and single measurements).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees that hold a
// regression bound between runs, reported by every untraced run of every
// workload. BENCHMARK.json carries their directions and bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb_p50", "MB"},
}

// loopMetrics are the timed loop's throughput and campaign times. A
// user sees them too, but in wall time on a shared 2-core VM they spread
// by 10-25% between runs of one commit, more than a regression bound may
// be, so they are reported with the per-layer metrics, without a bound.
// Every run keeps them in results.json for the tracing-overhead
// comparison.
var loopMetrics = []metricDef{
	{"rounds_per_s", "1/s"},
	{"points_per_s", "1/s"},
	{"campaign_s_p50", "s"},
	{"campaign_s_p90", "s"},
}

// fsOps are the file-system operations whose count per round and cost
// per call the traced run reports. write_8k's count is the "write"
// syscall count.
var fsOps = []struct{ label, cost string }{
	{"stat", "stat"},
	{"lstat", "lstat"},
	{"open", "open"},
	{"write", "write_8k"},
	{"chown", "chown"},
	{"chmod", "chmod"},
	{"rename", "rename"},
	{"unlink", "unlink"},
	{"symlink", "symlink"},
	{"close", "close"},
}

// perLayer are the metrics of single layers, reported by every traced
// run of every workload. They have no regression bound.
var perLayer = func() []metricDef {
	defs := append([]metricDef(nil), loopMetrics...)
	defs = append(defs, []metricDef{
		{"scenario.parse_ms_p50", "ms"},
		{"scenario.compile_ms_p50", "ms"},
		{"scenario.render_ms_p50", "ms"},
		{"sweep.busy_s", "s"},
		{"sweep.rounds_executed", "count"},
		{"sweep.rounds_committed", "count"},
		{"sweep.points_memoized", "count"},
		{"sweep.useful_ratio", "ratio"},
		{"sweep.idle_frac", "ratio"},
		{"round.forked_us", "us"},
		{"round.stepped_us", "us"},
		{"round.classic_us", "us"},
		{"round.allocs", "count"},
		{"round.bytes", "B"},
		{"sim.dispatches_per_round", "count"},
		{"sim.preemptions_per_round", "count"},
		{"sim.sem_acquires_per_round", "count"},
		{"sim.sem_blocks_per_round", "count"},
		{"sim.ticks_per_round", "count"},
		{"sim.noise_bursts_per_round", "count"},
		{"sim.traps_per_round", "count"},
		{"sim.virtual_us_per_round", "virtual_us"},
		{"sim.events_per_round", "count"},
		{"sim.host_ns_per_event", "ns"},
	}...)
	for _, op := range fsOps {
		defs = append(defs, metricDef{"fs.ops_per_round." + op.label, "count"})
	}
	for _, op := range fsOps {
		defs = append(defs, metricDef{"fs.ns_per_op." + op.cost, "ns"})
	}
	return append(defs, []metricDef{
		{"fs.share_of_round", "ratio"},
		{"checkpoint.flush_ms_p50", "ms"},
		{"checkpoint.flush_ms_p90", "ms"},
		{"checkpoint.bytes_per_flush_p50", "B"},
		{"checkpoint.s_per_campaign_p50", "s"},
		{"campaignd.submit_ms_p50", "ms"},
		{"campaignd.first_point_ms_p50", "ms"},
		{"campaignd.point_gap_ms_p50", "ms"},
		{"campaignd.ndjson_bytes_per_point", "B"},
		{"campaignd.report_fetch_ms_p50", "ms"},
		{"campaignd.replay_ms_p50", "ms"},
		{"campaignd.memo_hits", "count"},
		{"campaignd.points_committed", "count"},
		{"workerpool.run_ms_p50", "ms"},
		{"workerpool.inproc_ms_p50", "ms"},
		{"workerpool.overhead_ms_p50", "ms"},
		{"workerpool.first_point_ms_p50", "ms"},
		{"workerpool.spawns", "count"},
		{"workerpool.leases_issued", "count"},
		{"workerpool.leases_requeued", "count"},
		{"workerpool.ndjson_bytes_per_point", "B"},
		{"host.calib_ns", "ns"},
		{"host.fsync_us_p50", "us"},
	}...)
}()
