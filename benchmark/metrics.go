package main

// metric describes one reported number. BENCHMARK.json carries name,
// unit, better and (end-to-end only) bound; bench_test.go keeps the two
// in step. moves names the end-to-end metric a layer metric should
// move and the workloads it should move it on; exact marks the counts
// that repeat exactly between runs of one commit and seed, which
// -compare checks for equality.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
	exact  bool
	moves  string
}

var endToEndMetrics = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sim_mcycles_per_s", unit: "Mcycles/s", better: "higher", bound: 0.25},
	{name: "sim_minst_per_s", unit: "Minst/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: "MiB", better: "lower", bound: 0.05},
}

const (
	fingerprint = "fingerprint: a speed-only change leaves it identical unless the issue names the count it removes"
	rateMipsy   = "sim_mcycles_per_s on paper_mipsy and membound_mipsy; flat on mxs_apps"
	rateMXS     = "sim_mcycles_per_s and sim_minst_per_s on mxs_apps and membound_mxs"
	setupWall   = "setup_s and wall_s on all workloads; largest share on campaign"
	campaign    = "wall_s on campaign"
)

var perLayerMetrics = []metric{
	{name: "core.run_s", unit: "s", better: "lower", moves: "the traced pass's time inside Machine.Run"},
	{name: "core.cycles", unit: "count", better: "lower", exact: true, moves: fingerprint},
	{name: "core.cycles_skipped", unit: "count", better: "higher", exact: true, moves: fingerprint},
	{name: "core.skip_frac", unit: "ratio", better: "higher", exact: true, moves: fingerprint},
	{name: "core.ticks", unit: "count", better: "lower", exact: true, moves: fingerprint + " (core.ticks on membound_mxs for a per-CPU skip)"},
	{name: "core.nextwork_calls", unit: "count", better: "lower", exact: true, moves: fingerprint},
	{name: "core.loop_ns_per_cycle", unit: "ns", better: "lower", moves: rateMipsy},
	{name: "core.jump_ns", unit: "ns", better: "lower", moves: "sim_mcycles_per_s on membound_mipsy"},
	{name: "core.sched_s", unit: "s", better: "lower", moves: rateMipsy},
	{name: "core.sched_frac", unit: "ratio", better: "lower", moves: rateMipsy},
	{name: "core.noskip_ratio", unit: "ratio", better: "higher", moves: "what the quiescence skip buys: >= 2 on membound_mipsy, about 1 on paper_mipsy"},
	{name: "core.simjobs2_ratio", unit: "ratio", better: "higher", moves: "sim_mcycles_per_s on membound_mxs if -sim-jobs became the default; the keep-or-delete number for parallel.go"},
	{name: "core.new_machine_ms", unit: "ms", better: "lower", moves: setupWall},
	{name: "cpu.tick_s", unit: "s", better: "lower", moves: rateMXS},
	{name: "cpu.tick_frac", unit: "ratio", better: "lower", moves: rateMXS},
	{name: "cpu.ns_per_tick", unit: "ns", better: "lower", moves: rateMXS},
	{name: "cpu.ns_per_inst", unit: "ns", better: "lower", moves: rateMXS},
	{name: "cpu.ticks_per_inst", unit: "ratio", better: "lower", exact: true, moves: fingerprint},
	{name: "cpu.perfect_mem_ns_per_tick", unit: "ns", better: "lower", moves: rateMXS},
	{name: "memsys.calls", unit: "count", better: "lower", exact: true, moves: fingerprint},
	{name: "memsys.refused_frac", unit: "ratio", better: "lower", exact: true, moves: fingerprint},
	{name: "memsys.l1_frac", unit: "ratio", better: "higher", exact: true, moves: fingerprint},
	{name: "memsys.l2_frac", unit: "ratio", better: "lower", exact: true, moves: fingerprint},
	{name: "memsys.mem_frac", unit: "ratio", better: "lower", exact: true, moves: fingerprint},
	{name: "memsys.c2c_frac", unit: "ratio", better: "lower", exact: true, moves: fingerprint},
	{name: "memsys.replay_s", unit: "s", better: "lower", moves: rateMipsy},
	{name: "memsys.frac", unit: "ratio", better: "lower", moves: rateMipsy},
	{name: "memsys.ns_per_call", unit: "ns", better: "lower", moves: rateMipsy},
	{name: "memsys.shared-l1.ns_per_call", unit: "ns", better: "lower", moves: rateMipsy},
	{name: "memsys.shared-l2.ns_per_call", unit: "ns", better: "lower", moves: rateMipsy},
	{name: "memsys.shared-mem.ns_per_call", unit: "ns", better: "lower", moves: rateMipsy},
	{name: "memsys.replay_exact", unit: "bool", better: "higher", exact: true, moves: "must be 1: the replayed report equals the run's"},
	{name: "cache.access_ns", unit: "ns", better: "lower", moves: "memsys.*ns_per_call on the Mipsy workloads"},
	{name: "cache.hit_frac", unit: "ratio", better: "higher", exact: true, moves: fingerprint},
	{name: "cache.mshr_ns", unit: "ns", better: "lower", moves: "memsys.*ns_per_call on the Mipsy workloads"},
	{name: "coherence.snoop_ns", unit: "ns", better: "lower", moves: "memsys.shared-mem.ns_per_call on paper_mipsy"},
	{name: "coherence.dir_ns", unit: "ns", better: "lower", moves: "memsys.shared-l2.ns_per_call on paper_mipsy"},
	{name: "interconnect.acquire_ns", unit: "ns", better: "lower", moves: "memsys.*ns_per_call on membound_mipsy"},
	{name: "event.schedule_run_ns", unit: "ns", better: "lower", moves: "core.sched_s in the pmake cells"},
	{name: "isa.decode_ns", unit: "ns", better: "lower", moves: setupWall},
	{name: "mem.image_new_ms", unit: "ms", better: "lower", moves: setupWall},
	{name: "workload.configure_ms", unit: "ms", better: "lower", moves: setupWall},
	{name: "workload.validate_ms", unit: "ms", better: "lower", moves: "wall_s on all workloads"},
	{name: "sim.instructions", unit: "count", better: "lower", exact: true, moves: fingerprint},
	{name: "sim.ipc", unit: "ratio", better: "higher", exact: true, moves: fingerprint},
	{name: "sim.l1d_repl_misses", unit: "count", better: "lower", exact: true, moves: fingerprint},
	{name: "sim.l1d_inv_misses", unit: "count", better: "lower", exact: true, moves: fingerprint},
	{name: "sim.l2_repl_misses", unit: "count", better: "lower", exact: true, moves: fingerprint},
	{name: "sim.l2_inv_misses", unit: "count", better: "lower", exact: true, moves: fingerprint},
	{name: "sim.c2c_transfers", unit: "count", better: "lower", exact: true, moves: fingerprint},
	{name: "sim.digest_match", unit: "bool", better: "higher", exact: true, moves: "must be 1: every run of a cell reported the same result"},
	{name: "sim.paper_shape_checked", unit: "count", better: "higher", exact: true, moves: fingerprint},
	{name: "sim.paper_shape_matched", unit: "count", better: "higher", exact: true, moves: "fingerprint of the figures' shape: 6 of 7 on paper_mipsy (Figure 6 is the recorded miss)"},
	{name: "runner.batch_cold_s", unit: "s", better: "lower", moves: campaign},
	{name: "runner.batch_warm_s", unit: "s", better: "lower", moves: "wall time of a fully cached campaign"},
	{name: "runner.job_s_p50", unit: "s", better: "lower", moves: campaign},
	{name: "runner.job_s_max", unit: "s", better: "lower", moves: campaign + " (the straggler bounds the batch)"},
	{name: "runner.parallel_eff", unit: "ratio", better: "higher", moves: campaign},
	{name: "runner.speedup_vs_serial", unit: "ratio", better: "higher", moves: campaign},
	{name: "runner.cache_put_ms", unit: "ms", better: "lower", moves: campaign},
	{name: "runner.cache_get_ms", unit: "ms", better: "lower", moves: "runner.batch_warm_s"},
	{name: "runner.cache_hit_frac", unit: "ratio", better: "higher", exact: true, moves: fingerprint},
	{name: "runner.entry_kb", unit: "KiB", better: "lower", moves: "runner.cache_put_ms, runner.cache_get_ms"},
	{name: "stats.build_figure_us", unit: "us", better: "lower", moves: "nothing end to end: microseconds per figure"},
	{name: "host.nproc", unit: "count", better: "higher", moves: "context for campaign and core.simjobs2_ratio"},
	{name: "host.peak_rss_mb", unit: "MiB", better: "lower", moves: "informational: varies by tens of MiB between identical runs"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "cost of the counting probes: the probe cells' run time in the traced pass over their untraced run, minus 1"},
}
