package main

// metricDef names one metric of the benchmark. The catalogue below is the
// single list the driver prints from; BENCHMARK.json at the repository root
// repeats it for the builder, and a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the host-clock metrics a user of the simulator sees, reported
// by the untraced run of every workload. All are measured, none can be 0.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"host_op_p50_ms", "ms", lower, 0.25},
	{"host_op_p90_ms", "ms", lower, 0.25},
	{"host_ops_per_s", "1/s", higher, 0.25},
	{"host_peak_rss_mb", "MB", lower, 0.25},
}

// perLayer are the traced run's metrics: the simulated-clock results (which
// repeat exactly for a seed and therefore carry no bound), the end-to-end
// figures only some workloads exercise, and one group per layer of the stack.
// A workload that does not exercise a metric reports 0 for it.
var perLayer = []metricDef{
	// Simulated clock and output checks.
	{"sim_latency_mean_us", "us", lower, 0},
	{"sim_qps", "1/s", higher, 0},
	{"sim_energy_mj_per_op", "mJ", lower, 0},
	{"cache_hit_rate", "ratio", higher, 0},
	{"failed_frac", "ratio", lower, 0},
	{"topk_mismatch_frac", "ratio", lower, 0},
	// Host-clock figures of single workloads.
	{"host_cmp_per_s", "1/s", higher, 0},
	{"host_events_per_s", "1/s", higher, 0},
	{"host_append_p50_ms", "ms", lower, 0},
	{"host_append_mean_ms", "ms", lower, 0},
	{"host_append_samples", "count", higher, 0},
	// Where an op's time goes, from the probe spans of the traced run.
	{"share.tensor_nn", "ratio", higher, 0},
	{"share.accel_sim", "ratio", lower, 0},
	{"share.cache_path", "ratio", higher, 0},
	// tensor
	{"tensor.gemm_f32_ns_per_mac", "ns", lower, 0},
	{"tensor.gemm_i8_ns_per_mac", "ns", lower, 0},
	{"tensor.gemm_share", "ratio", higher, 0},
	// nn
	{"nn.score_batch_us_per_feature", "us", lower, 0},
	{"nn.score_multi_i8_us_per_cmp", "us", lower, 0},
	{"nn.qcn_sweep_us_per_entry", "us", lower, 0},
	{"nn.bound_us_per_stripe", "us", lower, 0},
	{"nn.allocs_per_batch", "count", lower, 0},
	// topk
	{"topk.offer_ns", "ns", lower, 0},
	{"topk.merge_us", "us", lower, 0},
	// qcache
	{"qcache.lookup_us", "us", lower, 0},
	{"qcache.hits", "count", higher, 0},
	{"qcache.misses", "count", lower, 0},
	{"qcache.evictions", "count", lower, 0},
	{"qcache.admission_rejects", "count", lower, 0},
	{"qcache.comparisons_per_lookup", "count", lower, 0},
	// qhist
	{"qhist.append_us", "us", lower, 0},
	{"qhist.mine_ms", "ms", lower, 0},
	{"qhist.snapshot_ms", "ms", lower, 0},
	{"qhist.records", "count", lower, 0},
	{"qhist.bytes_per_record", "B", lower, 0},
	// core
	{"core.scan_parallel_eff", "ratio", higher, 0},
	{"core.alloc_kb_per_op", "KB", lower, 0},
	{"core.mallocs_per_op", "count", lower, 0},
	{"core.features_scanned_per_op", "count", lower, 0},
	{"core.prune_skip_frac", "ratio", higher, 0},
	{"core.stripes_checked_per_op", "count", lower, 0},
	{"core.rerank_cands_per_op", "count", lower, 0},
	{"core.shared_scan_width", "count", higher, 0},
	{"core.write_feat_per_s", "1/s", higher, 0},
	{"core.append_uncontended_ms", "ms", lower, 0},
	{"core.checkpoint_ms", "ms", lower, 0},
	{"core.lock_wait_ms", "ms", lower, 0},
	{"core.sim_stage_us.qcache_lookup", "us", lower, 0},
	{"core.sim_stage_us.bound_check", "us", lower, 0},
	{"core.sim_stage_us.scan", "us", lower, 0},
	{"core.sim_stage_us.shared_scan", "us", lower, 0},
	{"core.sim_stage_us.rerank", "us", lower, 0},
	{"core.sim_stage_us.rerank_exact", "us", lower, 0},
	{"core.sim_stage_us.dma", "us", lower, 0},
	{"core.sim_stage_us.hist_append", "us", lower, 0},
	{"core.sim_stage_us.hist_mine", "us", lower, 0},
	// accel, systolic, sim
	{"accel.scan_host_us", "us", lower, 0},
	{"accel.sim_compute_util", "ratio", higher, 0},
	{"accel.weight_rounds", "count", lower, 0},
	{"systolic.cycles_per_feature", "count", lower, 0},
	{"sim.events_per_op", "count", lower, 0},
	{"sim.host_ns_per_event", "ns", lower, 0},
	// flash, ssd, ftl
	{"flash.page_reads_per_op", "count", lower, 0},
	{"flash.bus_bytes_per_op", "B", lower, 0},
	{"flash.page_programs_setup", "count", lower, 0},
	{"flash.read_retries", "count", lower, 0},
	{"ssd.stream_bytes", "B", lower, 0},
	{"ftl.snapshot_ms", "ms", lower, 0},
	{"ftl.restore_ms", "ms", lower, 0},
	{"ftl.image_bytes", "B", lower, 0},
	{"ftl.flash_bytes_per_user_byte", "ratio", lower, 0},
	// energy
	{"energy.compute_mj_per_op", "mJ", lower, 0},
	{"energy.memory_mj_per_op", "mJ", lower, 0},
	{"energy.flash_mj_per_op", "mJ", lower, 0},
	// proto
	{"proto.client_self_us", "us", lower, 0},
	{"proto.bytes_per_op", "B", lower, 0},
	{"proto.features_codec_ns_per_byte", "ns", lower, 0},
	{"proto.commands", "count", lower, 0},
	{"proto.retries", "count", lower, 0},
	{"proto.failures", "count", lower, 0},
	// cluster
	{"cluster.query_ms", "ms", lower, 0},
	{"cluster.fanout_overhead_frac", "ratio", lower, 0},
	{"cluster.sim_makespan_us", "us", lower, 0},
	// exp: the only reference result the repository holds.
	{"exp.table4_speedup_gmean_err", "ratio", lower, 0},
	// the harness itself
	{"gen.loop_idle_frac", "ratio", lower, 0},
	{"trace.overhead_frac", "ratio", lower, 0},
	{"trace.spans", "count", lower, 0},
}

// workloadDef names a workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"scan_dense", "every op is a full fp32 scan: tensor GEMM and nn scoring do nearly all host work, the event model next to none, cache and wire none"},
	{"multi_tight_ingest", "shared int8 pruned sweeps with fp32 rerank on clustered data while a second client appends: packing, stripe skipping and the engine lock"},
	{"cache_zipf_remote", "sub-millisecond ops over the wire protocol on a cache smaller than the hot set: qcache sweep, history, admission and framing dominate"},
	{"sim_paper", "paper-scale declared databases at all three accelerator levels: only the event model runs, no vectors are scored"},
}

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// description is the BENCHMARK.json this build of the benchmark stands for.
func description() benchmarkJSON {
	return benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer, // bound 0 is omitted: per-layer metrics have none
	}
}
