package main

// metricDef names one reported number. BENCHMARK.json at the repository
// root lists the same names, units and directions (the self-test checks
// that), plus the regression bound of each end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks a number that is a pure function of the seed: -compare
	// holds it to equality instead of the relative bound.
	Exact bool
}

// endToEnd is what the benchmark driver holds to a regression bound: the
// same set on every workload, measured with tracing off. Only numbers
// that repeat on this host are here; the serving-phase timings are in
// serving.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "welfare", Unit: "currency", Better: "higher", Exact: true},
}

// serving is what a bidder and an operator see of the serving phase.
// They are end-to-end metrics in everything but the driver's list: every
// run measures them with tracing off, every run prints them, and -compare
// holds them to servingBound. The driver gets them among the per-layer
// metrics, which carry no bound, because a wall-clock time of this
// memory-bound code does not repeat on this shared host to within a
// bound the driver accepts (README, "Steadiness").
var serving = []metricDef{
	{Name: "harness.bids_per_s", Unit: "bids/s", Better: "higher"},
	{Name: "harness.decision_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.slot_close_p50_ms", Unit: "ms", Better: "lower"},
}

// servingBound is the share by which -compare lets a serving metric
// worsen: BENCHMARK.json has bounds for the driver's end-to-end list only.
const servingBound = 0.25

// perLayer is what a traced run reports: the serving metrics from its
// untraced passes, everything else from its traced ones; the layer is the
// module name.
var perLayer = append(append([]metricDef(nil), serving...), []metricDef{
	{Name: "harness.submit_phase_s", Unit: "s", Better: "lower"},
	{Name: "harness.step_phase_s", Unit: "s", Better: "lower"},
	{Name: "harness.restore_phase_s", Unit: "s", Better: "lower"},
	{Name: "harness.restore_cycles", Unit: "count", Better: "higher"},
	{Name: "harness.wall_s", Unit: "s", Better: "lower"},
	{Name: "harness.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.ack_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.decision_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.slot_close_p90_ms", Unit: "ms", Better: "lower"},

	{Name: "core.offer.count", Unit: "count", Better: "higher"},
	{Name: "core.offer.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.offer.p50_us", Unit: "us", Better: "lower"},
	{Name: "core.offer.p99_us", Unit: "us", Better: "lower"},
	{Name: "core.offer.admit_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.offer.reject_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.offer.admit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.offer.rejected_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "core.dp.runs", Unit: "count", Better: "lower"},
	{Name: "core.dp.runs_per_bid", Unit: "ratio", Better: "lower"},
	{Name: "core.dp.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.dp.p50_us", Unit: "us", Better: "lower"},
	{Name: "core.commit.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.dual.updates", Unit: "count", Better: "higher"},
	{Name: "core.reject.surplus", Unit: "count", Better: "lower"},
	{Name: "core.reject.no_schedule", Unit: "count", Better: "lower"},
	{Name: "core.reject.capacity", Unit: "count", Better: "lower"},

	{Name: "service.round.step_busy_s", Unit: "s", Better: "lower"},
	{Name: "service.round.head_busy_s", Unit: "s", Better: "lower"},
	{Name: "service.round.between_bids_busy_s", Unit: "s", Better: "lower"},
	{Name: "service.round.tail_busy_s", Unit: "s", Better: "lower"},
	{Name: "service.round.bids_per_close_max", Unit: "count", Better: "higher"},

	{Name: "service.http.requests", Unit: "count", Better: "lower"},
	{Name: "service.http.status_429", Unit: "count", Better: "lower"},
	{Name: "service.http.status_5xx", Unit: "count", Better: "lower"},
	{Name: "service.http.handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "service.http.handler_p95_us", Unit: "us", Better: "lower"},
	{Name: "service.http.wire_p50_us", Unit: "us", Better: "lower"},
	{Name: "service.http.decode_ns_per_bid", Unit: "ns/bid", Better: "lower"},
	{Name: "service.http.encode_ns_per_decision", Unit: "ns/decision", Better: "lower"},
	{Name: "service.http.body_bytes_per_bid", Unit: "B/bid", Better: "lower"},

	{Name: "service.intake.high_water", Unit: "count", Better: "lower"},
	{Name: "service.intake.held_high_water", Unit: "count", Better: "lower"},
	{Name: "service.intake.shed_channel_full", Unit: "count", Better: "lower"},
	{Name: "service.intake.shed_held_full", Unit: "count", Better: "lower"},
	{Name: "service.intake.retries", Unit: "count", Better: "lower"},

	{Name: "service.wal.records", Unit: "count", Better: "lower"},
	{Name: "service.wal.bytes_per_bid", Unit: "B/bid", Better: "lower"},
	{Name: "service.wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "service.wal.fsync_busy_s", Unit: "s", Better: "lower"},
	{Name: "service.wal.fsync_mean_us", Unit: "us", Better: "lower"},
	{Name: "service.wal.fsync_max_us", Unit: "us", Better: "lower"},
	{Name: "service.wal.failures", Unit: "count", Better: "lower"},
	{Name: "service.wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "service.wal.replayed", Unit: "count", Better: "higher"},

	{Name: "service.ckpt.full_bytes", Unit: "B", Better: "lower"},
	{Name: "service.ckpt.bytes_per_bid", Unit: "B/bid", Better: "lower"},
	{Name: "service.ckpt.delta_bytes", Unit: "B", Better: "lower"},
	{Name: "service.ckpt.load_s", Unit: "s", Better: "lower"},
	{Name: "service.ckpt.write_full_s", Unit: "s", Better: "lower"},
	{Name: "service.ckpt.restore_s", Unit: "s", Better: "lower"},
	{Name: "service.ckpt.failures", Unit: "count", Better: "lower"},

	{Name: "obs.declog.records", Unit: "count", Better: "higher"},
	{Name: "obs.declog.bytes_per_bid", Unit: "B/bid", Better: "lower"},
	{Name: "obs.declog.read_s", Unit: "s", Better: "lower"},

	{Name: "schedule.refill_ns_per_bid", Unit: "ns/bid", Better: "lower"},
	{Name: "vendor.quotes_ns_per_bid", Unit: "ns/bid", Better: "lower"},
	{Name: "trace.generate_s", Unit: "s", Better: "lower"},
	{Name: "core.calibrate_s", Unit: "s", Better: "lower"},

	{Name: "sim.twin_s", Unit: "s", Better: "lower"},
	{Name: "sim.twin_bids_per_s", Unit: "bids/s", Better: "higher"},
	{Name: "sim.serving_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "runtime.allocs_per_bid", Unit: "allocs/bid", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.cpu_steal_share", Unit: "ratio", Better: "lower"},
}...)

// metricsFor lists what a run of either kind measures and prints.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return append(append([]metricDef(nil), endToEnd...), serving...)
}
