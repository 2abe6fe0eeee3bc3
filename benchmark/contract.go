package main

// The metric names and units BENCHMARK.json declares. contract_test.go
// checks that the two lists agree.

type contractMetric struct{ name, unit string }

// endToEnd is reported by every workload, each under its own descriptive
// metric (see report.alias):
//
//	metric         sim-suite          rt-large         swarmd-jobs
//	work_per_s     sim_events_per_s   rt_tasks_per_s   jobs_per_s
//	latency_ms     pass_ms            pass_ms          job_p50_ms
//	allocs_per_op  allocs_per_task    allocs_per_task  allocs_per_job
//
// The other descriptive metrics are printed and recorded but not gated:
// sim_cycles exists on one workload, error_rate reads 0 when all is well,
// the tail latencies repeat job_p50_ms's signal with more noise, and
// peak_rss_mb spread by a fifth across seeds on sim-suite (it follows
// when the collector runs) and grows with the jobs swarmd-jobs served.
var endToEnd = []contractMetric{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"allocs_per_op", "allocs"},
}

// simCells and rtCells are the fixed cell lists of sim-suite and rt-large.
var (
	simCells = []string{"bfs", "sssp", "msf", "des", "silo", "kcore", "msort"}
	rtCells  = []string{"bfs", "sssp", "dsssp", "setcover", "silo", "msort", "bfs-conservative"}
)

// perLayer lists the traced run's metrics. Every workload prints all of
// them; a layer the workload does not reach reads 0.
func perLayer() []contractMetric {
	ms := []contractMetric{
		{"sim.ns_per_event", "ns"},
		{"guest.start_ns", "ns"},
		{"guest.resume_ns", "ns"},
		{"bloom.check_ns", "ns"},
		{"bloom.insert_ns", "ns"},
		{"core.run_ms", "ms"},
	}
	for _, c := range simCells {
		ms = append(ms, contractMetric{"core.run_ms." + c, "ms"})
	}
	ms = append(ms,
		contractMetric{"core.ns_per_event", "ns"},
		contractMetric{"core.allocs_per_event", "allocs"},
		contractMetric{"core.bytes_per_event", "B"},
		contractMetric{"core.events", "count"},
		contractMetric{"core.cycles", "cycles"},
		contractMetric{"core.commits", "count"},
		contractMetric{"core.aborts", "count"},
		contractMetric{"core.commit_ratio", "fraction"},
		contractMetric{"core.bloom_checks", "count"},
		contractMetric{"core.vt_compares", "count"},
		contractMetric{"core.gvt_updates", "count"},
		contractMetric{"core.spilled_tasks", "count"},
		contractMetric{"core.nacks", "count"},
		contractMetric{"core.task_ns", "ns"},
		contractMetric{"core.conflict_ns", "ns"},
		contractMetric{"core.spill_ns", "ns"},
		contractMetric{"core.stall_frac", "fraction"},
		contractMetric{"cache.l1_hit_ratio", "fraction"},
		contractMetric{"cache.mem_accesses", "count"},
		contractMetric{"noc.bytes", "B"},
		contractMetric{"rt.run_ms", "ms"},
	)
	for _, c := range rtCells {
		ms = append(ms, contractMetric{"rt.run_ms." + c, "ms"})
	}
	return append(ms,
		contractMetric{"rt.ns_per_commit", "ns"},
		contractMetric{"rt.allocs_per_commit", "allocs"},
		contractMetric{"rt.bytes_per_commit", "B"},
		contractMetric{"rt.commits", "count"},
		contractMetric{"rt.aborts", "count"},
		contractMetric{"rt.commit_ratio", "fraction"},
		contractMetric{"rt.scaling_2v1", "ratio"},
		contractMetric{"rt.task_ns.w1", "ns"},
		contractMetric{"rt.task_ns.w2", "ns"},
		contractMetric{"rt.conflict_ns", "ns"},
		contractMetric{"backend.build_ms.sim", "ms"},
		contractMetric{"backend.build_ms.rt", "ms"},
		contractMetric{"graph.load_warm_ms", "ms"},
		contractMetric{"graph.load_cold_ms", "ms"},
		contractMetric{"bench.new_ms", "ms"},
		contractMetric{"bench.verify_ms", "ms"},
		contractMetric{"serve.submit_ms", "ms"},
		contractMetric{"serve.poll_ms", "ms"},
		contractMetric{"serve.polls_per_job", "count"},
		contractMetric{"serve.job_elapsed_ms", "ms"},
		contractMetric{"serve.queue_wait_ms", "ms"},
		contractMetric{"serve.cache_hit_ratio", "fraction"},
		contractMetric{"serve.backoffs", "count"},
		contractMetric{"trace.overhead_frac", "fraction"},
	)
}
