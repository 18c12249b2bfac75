package main

import (
	"sort"
	"strings"
	"time"

	deepstore "repro"
	"repro/benchmark/probe"
)

// scoreBatch is the engine's default features-per-GEMM batch; the probes use
// the same m so their figures are the ones the scan sees.
const scoreBatch = 64

// maxReplay bounds the kept ops that get sibling probe spans.
const maxReplay = 2

// layerCtx is what a workload's layer pass works with: the metric map it
// fills, the traced loop it follows, and the span recorder.
type layerCtx struct {
	m        map[string]float64
	loop     loopResult
	untraced loopStats // the untraced half of the traced loop
	rec      *recorder
	procs    int
	budget   time.Duration // how long each probe repeats its call
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probeSpan records a probe's replay of op's inputs as a sibling of the op's
// root span: same trace id, no parent.
func (lc *layerCtx) probeSpan(op opOut, name string, d time.Duration) {
	start := time.Now()
	lc.rec.add(int64(op.index), 0, name, start, start.Add(d))
}

// replayed returns the kept ops that get probe spans.
func (lc *layerCtx) replayed() []opOut {
	return lc.loop.kept[:min(maxReplay, len(lc.loop.kept))]
}

// opWall is the median host time of an untraced op of this loop.
func (lc *layerCtx) opWall() time.Duration { return lc.untraced.p50 }

// engineTotals are the simulated-clock sums an engine publishes.
type engineTotals struct {
	energyJ   float64
	latencyMs float64
	stageMs   map[string]float64
}

func engineTotalsOf(sys *deepstore.System) engineTotals {
	snap := sys.MetricsSnapshot()
	t := engineTotals{energyJ: snap.Gauges["energy_j"], stageMs: map[string]float64{}}
	t.latencyMs = snap.Histograms["core_query_latency_ms"].Sum
	for name, h := range snap.Histograms {
		if stage, ok := strings.CutPrefix(name, "core_stage_"); ok {
			t.stageMs[strings.TrimSuffix(stage, "_ms")] = h.Sum
		}
	}
	return t
}

// commonLayers fills what every workload reports the same way: the
// simulated-clock results of the first simOps ops, the output checks, the
// loop's own accounting and the tracing overhead.
func commonLayers(lc *layerCtx, functional bool) {
	m, a, c := lc.m, lc.loop.sim, lc.loop.checker
	ops, queries := float64(max(a.ops, 1)), float64(max(a.queries, 1))
	m["sim_latency_mean_us"] = float64(a.latencyPs) / queries / 1e6
	m["sim_qps"] = a.simQPS()
	m["sim_energy_mj_per_op"] = a.energyTotalJ * 1e3 / ops
	m["cache_hit_rate"] = float64(a.hits) / queries
	m["failed_frac"] = float64(c.failed) / float64(max(c.attempted, 1))
	m["topk_mismatch_frac"] = float64(c.mismatched) / float64(max(c.checked, 1))

	all := account(lc.loop.samples, lc.loop.elapsed, func(sample) bool { return true })
	if busy := all.busy.Seconds(); busy > 0 {
		if functional {
			m["host_cmp_per_s"] = float64(lc.loop.scanned) / busy
		} else {
			m["host_events_per_s"] = float64(lc.loop.events) / busy
		}
	}
	m["host_append_p50_ms"] = ms(durationsP50(lc.loop.appends))
	m["host_append_mean_ms"] = ms(durationsMean(lc.loop.appends))
	m["host_append_samples"] = float64(len(lc.loop.appends))

	loopOps := float64(max(len(lc.loop.samples), 1))
	m["core.alloc_kb_per_op"] = lc.loop.allocKB / loopOps
	m["core.mallocs_per_op"] = float64(lc.loop.mallocs) / loopOps
	if functional {
		m["core.features_scanned_per_op"] = float64(a.scanned) / ops
	}
	if a.scanned+a.skipped > 0 {
		m["core.prune_skip_frac"] = float64(a.skipped) / float64(a.scanned+a.skipped)
	}
	m["core.stripes_checked_per_op"] = float64(a.stripesChecked) / ops
	m["core.rerank_cands_per_op"] = float64(a.rerankCands) / ops
	for stage, ps := range a.stagePs {
		m["core.sim_stage_us."+stage] = float64(ps) / ops / 1e6
	}
	m["energy.compute_mj_per_op"] = a.energyJ[0] * 1e3 / ops
	m["energy.memory_mj_per_op"] = a.energyJ[1] * 1e3 / ops
	m["energy.flash_mj_per_op"] = a.energyJ[2] * 1e3 / ops
	m["sim.events_per_op"] = float64(a.events) / ops

	m["gen.loop_idle_frac"] = all.idleFrac
	tracedHalf := account(lc.loop.samples, lc.loop.elapsed, func(s sample) bool { return s.traced })
	if lc.untraced.p50 > 0 && tracedHalf.ops > 0 {
		m["trace.overhead_frac"] = float64(tracedHalf.p50)/float64(lc.untraced.p50) - 1
	}
}

// engineLayers fills what a live engine's public counters give: flash
// traffic per op since the warm-up, the persist path, and the write path.
func engineLayers(lc *layerCtx, sys *deepstore.System, db deepstore.DBID, afterSetup flashCounts, opts deepstore.Options, vecs [][]float32) error {
	m := lc.m
	fs := sys.FlashStats()
	loopOps := float64(max(len(lc.loop.samples), 1))
	m["flash.page_reads_per_op"] = float64(fs.PageReads-afterSetup.reads) / loopOps
	m["flash.bus_bytes_per_op"] = float64(fs.BusBytes-afterSetup.busBytes) / loopOps
	m["flash.page_programs_setup"] = float64(afterSetup.programs)
	m["flash.read_retries"] = float64(fs.ReadRetries)
	m["ssd.stream_bytes"] = float64(sys.MetricsSnapshot().Counters["ssd_stream_bytes"])
	m["ftl.flash_bytes_per_user_byte"] = probe.FlashBytesPerUserByte(sys, db)

	start := time.Now()
	if _, err := sys.Checkpoint(); err != nil {
		return err
	}
	m["core.checkpoint_ms"] = ms(time.Since(start))
	persist, err := probe.FTLPersist(lc.budget, sys)
	if err != nil {
		return err
	}
	m["ftl.snapshot_ms"], m["ftl.restore_ms"] = ms(persist.Snapshot), ms(persist.Restore)
	m["ftl.image_bytes"] = float64(persist.ImageBytes)

	// The write path: the same vectors into a scratch engine of the same
	// options, which is what setup_s pays for the database.
	scratch, err := deepstore.New(opts)
	if err != nil {
		return err
	}
	start = time.Now()
	if _, err := scratch.WriteDB(vecs); err != nil {
		return err
	}
	m["core.write_feat_per_s"] = float64(len(vecs)) / time.Since(start).Seconds()
	return nil
}

// flashCounts is the flash activity at the end of set-up.
type flashCounts struct{ reads, programs, busBytes uint64 }

func flashCountsOf(sys *deepstore.System) flashCounts {
	fs := sys.FlashStats()
	return flashCounts{reads: fs.PageReads, programs: fs.PagePrograms, busBytes: fs.BusBytes}
}

// scanLayers fills the accel, systolic and sim figures from one event-driven
// scan of the given shape on a scratch device, and returns its host time.
func scanLayers(lc *layerCtx, net *deepstore.Network, level deepstore.Level, featureBytes, features, window int64, int8Path bool) (time.Duration, error) {
	cost, err := probe.AccelScan(net, level, featureBytes, features, window, int8Path)
	if err != nil {
		return 0, err
	}
	m := lc.m
	m["accel.scan_host_us"] = us(cost.Host)
	m["accel.sim_compute_util"] = cost.ComputeUtil
	m["accel.weight_rounds"] = float64(cost.WeightRounds)
	m["systolic.cycles_per_feature"] = float64(cost.CyclesPerFeature)
	if cost.Events > 0 {
		m["sim.host_ns_per_event"] = float64(cost.Host) / float64(cost.Events)
	}
	return cost.Host, nil
}

// gemmLayers fills the tensor figures at the network's FC shapes and returns
// the time Gemm alone needs per row.
func gemmLayers(lc *layerCtx, net *deepstore.Network, int8Path bool) time.Duration {
	pass, macs := probe.Gemm(lc.budget, net, scoreBatch, int8Path)
	if macs == 0 {
		return 0
	}
	name := "tensor.gemm_f32_ns_per_mac"
	if int8Path {
		name = "tensor.gemm_i8_ns_per_mac"
	}
	lc.m[name] = float64(pass) / float64(macs)
	return pass / scoreBatch
}

// scoresOf scores q against vecs once, for the top-K probe's input.
func scoresOf(net *deepstore.Network, q []float32, vecs [][]float32) []float32 {
	bs := net.BatchScorer(scoreBatch)
	out := make([]float32, len(vecs))
	for lo := 0; lo < len(vecs); lo += scoreBatch {
		hi := min(lo+scoreBatch, len(vecs))
		bs.ScoreBatch(out[lo:hi], q, vecs[lo:hi])
	}
	return out
}

func layersScanDense(lc *layerCtx, sys *deepstore.System, net *deepstore.Network, vecs [][]float32, db deepstore.DBID, afterSetup flashCounts, opts deepstore.Options, sz sizes) error {
	m := lc.m
	n := len(vecs)
	channels := opts.Device.Geometry.Channels
	perRow := gemmLayers(lc, net, false)
	var scorePass, accelHost time.Duration
	for i, op := range lc.replayed() {
		q := op.queries[0]
		pass, allocs := probe.ScoreBatch(lc.budget, net, q, vecs, scoreBatch)
		lc.probeSpan(op, "nn.score_batch", pass)
		lc.probeSpan(op, "tensor.gemm", perRow*time.Duration(n))
		offer, merge := probe.TopK(lc.budget, sz.k, channels, scoresOf(net, q, vecs))
		lc.probeSpan(op, "topk.offer_merge", offer*time.Duration(n)+merge)
		host, err := scanLayers(lc, net, opts.DefaultLevel, net.FeatureBytes(), int64(n), opts.TimingWindow, false)
		if err != nil {
			return err
		}
		lc.probeSpan(op, "accel.scan", host)
		if i == 0 {
			scorePass, accelHost = pass, host
			m["nn.score_batch_us_per_feature"] = us(pass) / float64(n)
			m["nn.allocs_per_batch"] = allocs
			m["tensor.gemm_share"] = float64(perRow*time.Duration(n)) / float64(pass)
			m["topk.offer_ns"], m["topk.merge_us"] = float64(offer), us(merge)
		}
	}
	if wall := lc.opWall(); wall > 0 {
		// The scan shards over procs workers, so an op has wall x procs of
		// CPU to spend; the one-goroutine replay says how much of it the
		// scoring needs. The event model runs serially inside the op.
		m["core.scan_parallel_eff"] = float64(scorePass) / (float64(wall) * float64(lc.procs))
		m["share.tensor_nn"] = m["core.scan_parallel_eff"]
		m["share.accel_sim"] = float64(accelHost) / float64(wall)
	}
	if err := engineLayers(lc, sys, db, afterSetup, opts, vecs); err != nil {
		return err
	}
	// Fan-out cost: the same database over two shards against the one engine.
	var queries [][]float32
	for _, op := range lc.loop.kept {
		queries = append(queries, op.queries[0])
	}
	if len(queries) > 0 {
		cl, err := probe.Cluster(2, opts, net, vecs, queries, sz.k)
		if err != nil {
			return err
		}
		m["cluster.query_ms"] = ms(cl.Query)
		m["cluster.sim_makespan_us"] = cl.Makespan.Microseconds()
		if wall := lc.opWall(); wall > 0 {
			m["cluster.fanout_overhead_frac"] = float64(cl.Query)/float64(wall) - 1
		}
	}
	return nil
}

func layersMultiTightIngest(lc *layerCtx, sys *deepstore.System, net *deepstore.Network, vecs [][]float32, dbA, dbB deepstore.DBID, afterSetup flashCounts, appendBatch [][]float32, opts deepstore.Options, sz sizes) error {
	m := lc.m
	n := len(vecs)
	channels := opts.Device.Geometry.Channels
	gemmLayers(lc, net, false)
	gemmLayers(lc, net, true)
	kScan := sz.multiK * sz.multiMargin
	a := lc.loop.sim
	scanFrac := 1.0
	if a.scanned+a.skipped > 0 {
		scanFrac = float64(a.scanned) / float64(a.scanned+a.skipped)
	}
	stripesPerOp := float64(a.stripesChecked) / float64(max(a.ops, 1))
	var nnWork, accelHost time.Duration
	for i, op := range lc.replayed() {
		sweep := probe.ScoreMultiInt8(lc.budget, net, op.queries, vecs, scoreBatch)
		lc.probeSpan(op, "nn.score_multi_i8", sweep)
		bound := probe.BoundCheck(lc.budget, net, op.queries[0], vecs, sz.multiStripe)
		lc.probeSpan(op, "nn.bound", time.Duration(float64(bound)*stripesPerOp))
		rerank, _ := probe.ScoreBatch(lc.budget, net, op.queries[0], vecs[:min(kScan, n)], scoreBatch)
		lc.probeSpan(op, "nn.rerank_fp32", rerank*time.Duration(len(op.queries)))
		offer, merge := probe.TopK(lc.budget, kScan, channels, scoresOf(net, op.queries[0], vecs))
		lc.probeSpan(op, "topk.offer_merge", (offer*time.Duration(n)+merge)*time.Duration(len(op.queries)))
		survivors := int64(float64(n) * scanFrac)
		host, err := scanLayers(lc, net, opts.DefaultLevel, net.FeatureBytes(), survivors, opts.TimingWindow, true)
		if err != nil {
			return err
		}
		lc.probeSpan(op, "accel.scan", host)
		if i == 0 {
			m["nn.score_multi_i8_us_per_cmp"] = us(sweep) / float64(len(op.queries)*n)
			m["nn.bound_us_per_stripe"] = us(bound)
			m["topk.offer_ns"], m["topk.merge_us"] = float64(offer), us(merge)
			nnWork = time.Duration(float64(sweep)*scanFrac) + time.Duration(float64(bound)*stripesPerOp) +
				rerank*time.Duration(len(op.queries))
			accelHost = host
		}
	}
	if wall := lc.opWall(); wall > 0 {
		m["core.scan_parallel_eff"] = float64(nnWork) / (float64(wall) * float64(lc.procs))
		m["share.tensor_nn"] = m["core.scan_parallel_eff"]
		m["share.accel_sim"] = float64(accelHost) / float64(wall)
	}
	snap := sys.MetricsSnapshot()
	if scans := snap.Counters["core_shared_scans"]; scans > 0 {
		m["core.shared_scan_width"] = float64(snap.Counters["core_shared_scan_queries"]) / float64(scans)
	}
	// The writer's append with no reader beside it. Contended appends come
	// in bursts of quick ones between long waits for the engine lock, so the
	// median hides the wait; the mean minus the quiet figure shows it.
	var quiet []time.Duration
	for i := 0; i < 8; i++ {
		start := time.Now()
		if err := sys.AppendDB(dbB, appendBatch); err != nil {
			return err
		}
		quiet = append(quiet, time.Since(start))
	}
	m["core.append_uncontended_ms"] = ms(durationsP50(quiet))
	if len(lc.loop.appends) > 0 {
		m["core.lock_wait_ms"] = m["host_append_mean_ms"] - m["core.append_uncontended_ms"]
	}
	return engineLayers(lc, sys, dbA, afterSetup, opts, vecs)
}

func layersCacheZipfRemote(lc *layerCtx, sys *deepstore.System, scn, qcn *deepstore.Network, vecs, intents [][]float32, db deepstore.DBID, afterSetup flashCounts, opts deepstore.Options, wireBytes func() int64, counters func() (int64, int64, int64), sz sizes) error {
	m := lc.m
	snap := sys.MetricsSnapshot()
	for _, name := range []string{"hits", "misses", "evictions", "admission_rejects"} {
		m["qcache."+name] = float64(snap.Counters["qcache_"+name])
	}
	hs := sys.HistoryStats()
	m["qhist.records"] = float64(hs.Records)
	occupancy := min(sz.cacheEntries, len(intents))
	q := intents[0]

	lookup, comparisons := probe.QCacheLookup(lc.budget, qcn, intents[:occupancy], q, sz.cacheThreshold, scoreBatch)
	m["qcache.lookup_us"], m["qcache.comparisons_per_lookup"] = us(lookup), comparisons
	sweep, _ := probe.ScoreBatch(lc.budget, qcn, q, intents[:occupancy], scoreBatch)
	m["nn.qcn_sweep_us_per_entry"] = us(sweep) / float64(occupancy)
	hist := probe.QHist(lc.budget, int(hs.Records), q, sz.k)
	m["qhist.append_us"], m["qhist.mine_ms"], m["qhist.snapshot_ms"] = us(hist.Append), ms(hist.Mine), ms(hist.Snapshot)
	m["qhist.bytes_per_record"] = hist.BytesPerRecord
	rerank, allocs := probe.ScoreBatch(lc.budget, scn, q, vecs[:min(sz.k, len(vecs))], scoreBatch)
	m["nn.allocs_per_batch"] = allocs
	scan, _ := probe.ScoreBatch(lc.budget, scn, q, vecs, scoreBatch)
	m["nn.score_batch_us_per_feature"] = us(scan) / float64(len(vecs))
	gemmLayers(lc, scn, false)
	accelHost, err := scanLayers(lc, scn, opts.DefaultLevel, scn.FeatureBytes(), int64(len(vecs)), opts.TimingWindow, false)
	if err != nil {
		return err
	}

	// The client's own time in a traced op: the root span minus the
	// Handler.Execute spans under it, which leaves encoding, framing, the
	// pipe and decoding. The median over the traced ops is reported.
	spans := lc.rec.snapshot()
	self := selfTimes(spans)
	var clientSelf []float64
	for _, s := range spans {
		if s.ParentID == 0 && s.Name == "op" {
			clientSelf = append(clientSelf, float64(self[s.SpanID]))
		}
	}
	sort.Float64s(clientSelf)
	var protoSelf time.Duration
	if len(clientSelf) > 0 {
		protoSelf = time.Duration(percentile(clientSelf, 50))
		m["proto.client_self_us"] = us(protoSelf)
	}
	m["proto.bytes_per_op"] = float64(wireBytes()) / float64(max(len(lc.loop.samples), 1))
	codec, payload, err := probe.FeaturesCodec(lc.budget, vecs)
	if err != nil {
		return err
	}
	if payload > 0 {
		m["proto.features_codec_ns_per_byte"] = float64(codec) / float64(payload)
	}
	commands, retries, failures := counters()
	m["proto.commands"], m["proto.retries"], m["proto.failures"] = float64(commands), float64(retries), float64(failures)

	// Probe spans beside the kept ops (all misses): what the miss path's
	// layers cost when replayed alone.
	for _, op := range lc.replayed() {
		lc.probeSpan(op, "qcache.lookup", lookup)
		lc.probeSpan(op, "nn.score_batch", scan)
		lc.probeSpan(op, "qhist.append", hist.Append)
		lc.probeSpan(op, "accel.scan", accelHost)
	}
	if wall := lc.opWall(); wall > 0 {
		// The median op is a hit: cache sweep, rerank of the cached entry,
		// history append, and the wire. A hit runs no scan, so
		// share.accel_sim stays 0.
		m["share.cache_path"] = float64(lookup+rerank+hist.Append+protoSelf) / float64(wall)
		m["share.tensor_nn"] = float64(rerank) / float64(wall)
	}
	return engineLayers(lc, sys, db, afterSetup, opts, vecs)
}

func layersSimPaper(lc *layerCtx, apps []*deepstore.App, levels []deepstore.Level, sz sizes) error {
	m := lc.m
	var host time.Duration
	var events, reads, busBytes uint64
	var util, cycles float64
	var rounds int64
	cells := 0
	for _, app := range apps {
		fb := app.FeatureBytes()
		for _, level := range levels {
			cost, err := probe.AccelScan(app.SCN, level, fb, sz.simDBBytes/fb, sz.simWindow, false)
			if err != nil {
				return err
			}
			if cost.Unsupported {
				continue
			}
			cells++
			host += cost.Host
			events += cost.Events
			reads += cost.PageReads
			busBytes += cost.BusBytes
			util += cost.ComputeUtil
			cycles += float64(cost.CyclesPerFeature)
			rounds += cost.WeightRounds
		}
	}
	for _, op := range lc.replayed() {
		lc.probeSpan(op, "accel.scan", host)
	}
	m["accel.scan_host_us"] = us(host)
	m["accel.sim_compute_util"] = util / float64(max(cells, 1))
	m["systolic.cycles_per_feature"] = cycles / float64(max(cells, 1))
	m["accel.weight_rounds"] = float64(rounds)
	if events > 0 {
		m["sim.host_ns_per_event"] = float64(host) / float64(events)
	}
	m["flash.page_reads_per_op"], m["flash.bus_bytes_per_op"] = float64(reads), float64(busBytes)
	if wall := lc.opWall(); wall > 0 {
		m["share.accel_sim"] = float64(host) / float64(wall)
	}
	err4, err := probe.Table4Err(sz.simWindow)
	if err != nil {
		return err
	}
	m["exp.table4_speedup_gmean_err"] = err4
	return nil
}
