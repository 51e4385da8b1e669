package main

// def declares one reported metric. Every workload reports every metric of
// the list its mode prints; a per-layer metric a workload does not exercise
// reads 0, which is itself the prediction that the layer is bypassed there.
type def struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees; README.md says
// what each means on each workload.
var endToEnd = []def{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
}

// perLayer are the traced run's per-layer metrics, grouped by the layer
// whose entry point the benchmark wraps.
var perLayer = []def{
	// workload, machine, sim: paper-cells, per round of four cells.
	{"workload.build_s", "s"},
	{"machine.new_s", "s"},
	{"machine.preload_s", "s"},
	{"sim.run_s.L0-TLB", "s"},
	{"sim.run_s.V-COMA", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.alloc_mb", "MB"},
	{"sim.gc_cycles", "count"},
	{"sim.mrefs_per_s", "Mref/s"},
	{"translation.l0_extra_s", "s"},

	// Simulated counts, per round of four cells. Exact: checked against
	// expected.json, so any drift fails the run.
	{"sim.events", "count"},
	{"sim.exec_cycles", "cycles"},
	{"machine.refs", "count"},
	{"tlb.accesses", "count"},
	{"tlb.misses", "count"},
	{"core.dlb_lookups", "count"},
	{"core.dlb_misses", "count"},
	{"machine.flc_hits", "count"},
	{"machine.slc_hits", "count"},
	{"machine.local_am", "count"},
	{"machine.remote", "count"},
	{"coherence.remote_reads", "count"},
	{"coherence.invalidations", "count"},
	{"coherence.injections", "count"},
	{"coherence.swaps", "count"},
	{"network.requests", "count"},
	{"network.blocks", "count"},
	{"network.queue_cycles", "cycles"},

	// experiments, runner, report: campaign-test, per cold campaign.
	{"experiments.observe_s", "s"},
	{"experiments.table4_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.fig11_s", "s"},
	{"experiments.mgmt_s", "s"},
	{"runner.jobs", "count"},
	{"runner.busy_s", "s"},
	{"runner.utilization", "ratio"},
	{"runner.longest_job_s", "s"},
	{"runner.failed", "count"},
	{"runner.cache_hits", "count"},
	{"runner.warm_ms", "ms"},
	{"report.render_ms", "ms"},

	// fsio: per cold campaign on campaign-test, per request on serve-mixed.
	{"fsio.ops", "count"},
	{"fsio.fsyncs", "count"},

	// serve: serve-mixed, timed from outside the server.
	{"serve.result_p99_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.waiting_requests", "count"},
	{"serve.hit_requests", "count"},
	{"serve.accept_p50_ms", "ms"},
	{"serve.accept_p99_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.run_p50_ms", "ms"},
	{"serve.fetch_p50_ms", "ms"},
	{"serve.sims_executed", "count"},
	{"serve.store_hits", "count"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},

	// serve: self time of the spans the server records on every request.
	{"span.admit.self_p50_ms", "ms"},
	{"span.journal-fsync.self_p50_ms", "ms"},
	{"span.queue-wait.self_p50_ms", "ms"},
	{"span.cache-probe.self_p50_ms", "ms"},
	{"span.simulate.self_p50_ms", "ms"},
	{"span.store-put.self_p50_ms", "ms"},

	// The benchmark itself: did the load measure the program or the client?
	{"bench.polls_per_request", "count"},
	{"obs.trace_overhead", "ratio"},
}
