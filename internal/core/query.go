package core

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/systolic"
	"repro/internal/topk"
)

// QuerySpec is the query API's argument block (Table 2): the query feature
// vector, how many results to retrieve, the SCN model, the database
// sub-range to search, and which accelerator level to use.
type QuerySpec struct {
	QFV     []float32
	K       int
	Model   ModelID
	DB      ftl.DBID
	DBStart int64 // first feature index (inclusive)
	DBEnd   int64 // last feature index (exclusive); 0 means the whole DB
	// Level overrides the engine default when non-nil.
	Level *accel.Level
}

func specFor(ds *DeepStore, level accel.Level) accel.Spec {
	return accel.SpecForLevel(level, ds.dev.Config)
}

// Query submits an intelligent query (query). The engine checks the query
// cache, and on a miss maps the SCN scan across the selected accelerators
// and reduces their per-accelerator top-K queues into the final result
// (§4.2, §4.7.1). Returns the query_id for getResults.
//
// Query is safe for concurrent callers: the engine mutex serializes the
// simulated-time accounting (the §4.7.1 dispatcher is a single embedded
// core), while the functional scoring inside each query fans out across a
// worker pool. The query-cache lookup and insert happen atomically with the
// latency accounting, so concurrent queries observe a consistent cache.
func (ds *DeepStore) Query(spec QuerySpec) (QueryID, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	key, err := ds.resolveSpec(spec)
	if err != nil {
		return 0, err
	}
	results, err := ds.runBatch([]batchItem{{spec: spec, scanKey: key}}, obs.StageScan)
	if err != nil {
		return 0, err
	}
	return ds.record(results[0]), nil
}

// scanKey is a resolved query target: queries with equal keys scan the same
// database range with the same model on the same accelerator level, so they
// can share one sweep.
type scanKey struct {
	st    *dbState
	net   *nn.Network
	level accel.Level
	start int64
	end   int64
}

// resolveSpec validates a query spec against the engine's tables and
// resolves its defaults (full-DB range, engine-default accelerator level).
// It refuses everything the scan or the cache would refuse — an unknown
// level, a model the level cannot run, a query the cache's QCN cannot
// compare — so a query that passes mutates no cache, clock or history state
// it cannot finish. Callers hold ds.mu.
func (ds *DeepStore) resolveSpec(spec QuerySpec) (scanKey, error) {
	st, err := ds.db(spec.DB)
	if err != nil {
		return scanKey{}, err
	}
	net, err := ds.model(spec.Model)
	if err != nil {
		return scanKey{}, err
	}
	if spec.K < 1 {
		return scanKey{}, fmt.Errorf("core: top-K %d < 1", spec.K)
	}
	layout := st.meta.Layout
	if int64(len(spec.QFV))*4 != layout.FeatureBytes {
		return scanKey{}, fmt.Errorf("core: query feature has %d dims, database stores %d-byte features",
			len(spec.QFV), layout.FeatureBytes)
	}
	if net.FeatureBytes() != layout.FeatureBytes {
		return scanKey{}, fmt.Errorf("core: model %q expects %d-byte features, database stores %d",
			net.Name, net.FeatureBytes(), layout.FeatureBytes)
	}
	if ds.qc != nil && len(spec.QFV) != ds.qcn.FeatureElems() {
		return scanKey{}, fmt.Errorf("%w: query has %d dims, QCN %q compares %d",
			ErrQCNWidth, len(spec.QFV), ds.qcn.Name, ds.qcn.FeatureElems())
	}
	key := scanKey{st: st, net: net, level: ds.opts.DefaultLevel, start: spec.DBStart, end: spec.DBEnd}
	if key.end == 0 {
		key.end = layout.Features
	}
	if key.start < 0 || key.end > layout.Features || key.start >= key.end {
		return scanKey{}, fmt.Errorf("core: query range [%d, %d) invalid for %d features", key.start, key.end, layout.Features)
	}
	if spec.Level != nil {
		key.level = *spec.Level
	}
	if !slices.Contains(accel.Levels(), key.level) {
		return scanKey{}, fmt.Errorf("core: unknown accelerator level %d", int(key.level))
	}
	scanSpec, _ := ds.scanTarget(st, key.level)
	if err := scanSpec.CheckSupport(net, ds.dev.Config); err != nil {
		return scanKey{}, err
	}
	return key, nil
}

// emitQuerySpans lays the query's stages out sequentially from t0 on the
// simulated clock, under one parent "query" span on the query's track. Stage
// latencies are analytic (the event engine only advances during the scan), so
// the track is the canonical sequential decomposition of Result.Latency
// rather than a replay of engine events; the "flash" category carries the
// event-level page-read detail.
func (ds *DeepStore) emitQuerySpans(t0 sim.Time, r *QueryResult) {
	if ds.tracer == nil {
		return
	}
	ds.tracer.Add(obs.Span{
		Name: "query", Cat: "core", TID: int64(r.ID),
		Start: t0, Dur: r.Latency,
		Args: map[string]string{"cache_hit": strconv.FormatBool(r.CacheHit)},
	})
	cursor := t0
	for _, s := range r.Stages {
		ds.tracer.Add(obs.Span{Name: s.Name, Cat: "core", TID: int64(r.ID), Start: cursor, Dur: s.Dur})
		cursor += sim.Time(s.Dur)
	}
}

func cloneVec(v []float32) []float32 {
	c := make([]float32, len(v))
	copy(c, v)
	return c
}

// costKey names one network on one accelerator level.
type costKey struct {
	net   *nn.Network
	level accel.Level
}

// networkCost is the systolic cost of one comparison by net on level's
// array. A network's shapes never change, so the engine memoises it per
// (network, level). Callers hold ds.mu.
func (ds *DeepStore) networkCost(net *nn.Network, level accel.Level) systolic.NetworkCost {
	key := costKey{net, level}
	cost, ok := ds.costs[key]
	if !ok {
		cost = specFor(ds, level).Array.NetworkCost(net.LayerPlan())
		ds.costs[key] = cost
	}
	return cost
}

// comparisons prices an analytic stage (DESIGN.md §4, "Analytic stages"):
// n items, each run through passes forward passes of net on level's array
// and reading bytes over its flash channel. With spread the items divide
// over the level's accelerators like the scan itself; without it one array
// runs them all. It returns the stage's latency and its energy: the systolic
// MACs and scratchpad traffic of every pass, then the items' flash reads and
// their NoC crossing. Callers hold ds.mu.
func (ds *DeepStore) comparisons(net *nn.Network, level accel.Level, n, passes, bytes int64, spread bool) (sim.Duration, energy.Breakdown) {
	if n == 0 {
		return 0, energy.Breakdown{}
	}
	spec := specFor(ds, level)
	cost := ds.networkCost(net, level)
	per := n
	if spread {
		per = (n + int64(spec.Count) - 1) / int64(spec.Count)
	}
	secs := float64(per*passes*cost.Cycles)/spec.Array.FreqHz +
		float64(per*bytes)/ds.dev.Config.Timing.ChannelBandwidth
	e := energy.Energy(energy.Activity{
		MACs:      cost.MACs * passes * n,
		SRAMBytes: (cost.SRAMReadBytes + cost.SRAMWriteBytes) * passes * n,
		SRAMSize:  spec.Array.ScratchpadBytes,
		SRAMKind:  spec.SRAMKind,
	})
	e.Add(energy.Energy(energy.Activity{FlashBytes: n * bytes, NoCBytes: n * bytes}))
	return sim.FromSeconds(secs), e
}

// scanTarget picks what the event-driven scan of st reads and how the arrays
// run: the int8 table at INT8 on a quantized database — a quarter of the
// flash, NoC, and DRAM bytes per feature — and the fp32 data otherwise.
func (ds *DeepStore) scanTarget(st *dbState, level accel.Level) (accel.Spec, ftl.DBLayout) {
	spec, layout := specFor(ds, level), st.meta.Layout
	if st.quant != nil {
		if ql, ok := st.meta.QuantTable(); ok {
			layout = ql
			spec.Array.Precision = systolic.INT8
		}
	}
	return spec, layout
}

// simulateScanCount runs the event-driven scan for `features` surviving
// features. A sub-range (or pruned) scan is striped identically to a full
// scan (§4.4), so a layout with the surviving feature count models it. A
// fully-pruned scan does no device work at all.
func (ds *DeepStore) simulateScanCount(net *nn.Network, st *dbState, level accel.Level, features int64) (accel.ScanResult, error) {
	if features <= 0 {
		return accel.ScanResult{}, nil
	}
	spec, layout := ds.scanTarget(st, level)
	layout.Features = features
	return accel.Scan(accel.ScanRequest{
		Device:                 ds.dev,
		Spec:                   spec,
		Net:                    net,
		Layout:                 layout,
		WindowFeaturesPerAccel: ds.opts.TimingWindow,
	})
}

// recordPruneStats folds one scan's skip accounting into the engine
// counters. Only called while the pruning tier is active, so dense engines
// never grow the counters.
func (ds *DeepStore) recordPruneStats(ps PruneStats) {
	ds.obs.Counter("core_prune_stripes_checked").Add(ps.StripesChecked)
	ds.obs.Counter("core_prune_stripes_skipped").Add(ps.StripesSkipped)
	ds.obs.Counter("core_prune_features_skipped").Add(ps.FeaturesSkipped)
}

// sweep is the functional scan — the map-reduce of §4.7.1 over the
// materialized vectors, for nq >= 1 queries at once. The range [start, end) is
// sharded per channel (each shard is one channel's stripe, exactly the share
// that channel's accelerator scans), up to `workers` goroutines drain the
// shards, every gather batch is scored against all queries in one ScoreMulti
// call (so gather work and each layer's weight traffic are paid once for the
// batch), and the per-(query, channel) queues are reduced with topk.Merge.
// A worker claims a run of consecutive channels — as many as fit their
// features into one gather batch, one under a tier — and gathers across the
// run; each row records its channel, and a drain offers it to that channel's
// queues, so every queue sees the offers a one-channel walk would make.
// Three inputs shape the walk and nothing else does: the width nq, the
// precision (int8 when the database has a quant table, fp32 otherwise — picked
// once, below), and the bound tier. With a tier the walk goes stripe segment
// by segment and each query decides at segment entry, against its own queue,
// whether to skip it; a segment is gathered and scored once if ANY query
// survives it, and offers to queries that skipped it are withheld, so every
// query's queue evolves exactly as it would alone. Without a tier the single
// segment runs to the end of the range.
//
// Results do not depend on workers, the gather batch, the run length or nq:
// every shard sees the same comparisons in the same stripe order, a score is
// the same bits in any batch (see nn.BatchScorer), skip decisions happen only
// at segment boundaries after the gather is drained, and the merge's (score,
// featureID) total order is independent of shard completion order. Entries
// carry no ObjectID: runBatch stamps it (stampObjectIDs). Declared (spec-only)
// databases return empty top-Ks.
func (ds *DeepStore) sweep(key scanKey, qfvs [][]float32, ks []int, workers int) ([][]topk.Entry, []PruneStats) {
	nq := len(qfvs)
	tops := make([][]topk.Entry, nq)
	totals := make([]PruneStats, nq)
	st, net := key.st, key.net
	if st.vectors == nil {
		return tops, totals
	}
	channels := st.meta.Layout.Geom.Channels
	stride := int64(channels)
	tier, qt := st.bounds, st.quant
	var qqs []nn.QuantQuery
	if qt != nil {
		qqs = make([]nn.QuantQuery, nq)
		for q := range qfvs {
			qqs[q] = nn.PrepareQuantQuery(qfvs[q])
		}
	}
	// A single query scores at most one gather batch per GEMM pass, so its
	// context carries no more scorer scratch than that.
	batch := ds.scoreBatch()
	rows := batch
	if nq > 1 {
		rows = multiScoreRows
	}
	// Runs of group channels fill a batch when a channel holds fewer
	// features; a tier decides skips per channel segment, so it keeps one.
	group := 1
	if perChannel := (key.end - key.start + stride - 1) / stride; tier == nil && perChannel > 0 {
		group = max(1, batch/int(perChannel))
	}
	runs := (channels + group - 1) / group
	queues := make([]*topk.Queue, channels*nq) // [ch*nq+q]
	stats := make([]PruneStats, channels*nq)
	if workers > runs {
		workers = runs
	}
	var nextRun, batches atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := ds.pools.get(net, rows)
			defer ctx.release()
			scores := ctx.scoreRows(nq)
			gather := func(n int, i int64) { ctx.dfvs[n] = st.vectors[i] }
			score := func(n int) { ctx.bs.ScoreMulti(scores, qfvs, ctx.dfvs[:n]) }
			if qt != nil {
				gather = func(n int, i int64) { ctx.qdfvs[n] = qt.vecs[i] }
				score = func(n int) { ctx.qbs.ScoreMulti(scores, qqs, ctx.qdfvs[:n]) }
			}
			// active masks which queries the current segment still scans
			// (nil = all, the tierless walk).
			var active []bool
			if tier != nil {
				active = make([]bool, nq)
			}
			drained := int64(0)
			drain := func(n int) {
				if n == 0 {
					return
				}
				score(n)
				drained++
				for q := range nq {
					if active == nil || active[q] {
						ctx.offer(queues, nq, q, scores[q], n)
					}
				}
			}
			defer func() { batches.Add(drained) }()
			for {
				first := int(nextRun.Add(1)-1) * group
				if first >= channels {
					return
				}
				n := 0
				for ch := first; ch < min(first+group, channels); ch++ {
					qs := queues[ch*nq : (ch+1)*nq]
					for q, k := range ks {
						qs[q] = topk.New(k)
					}
					// Feature i lives on channel i mod Channels (§4.4
					// striping), so the walk visits the stripe directly.
					for i := key.start + ((int64(ch)-key.start)%stride+stride)%stride; i < key.end; {
						segEnd := key.end
						if tier != nil {
							seg := (i / stride) / tier.stripeFeatures
							segEnd = min(int64(ch)+stride*(seg+1)*tier.stripeFeatures, key.end)
							segFeatures := (segEnd - i + stride - 1) / stride
							anyActive := false
							for q := range qs {
								ps := &stats[ch*nq+q]
								active[q] = !skipStripe(ctx.bnd, tier, qfvs[q], qs[q], ch, seg, ps)
								if active[q] {
									anyActive = true
								} else {
									ps.FeaturesSkipped += segFeatures
								}
							}
							if !anyActive {
								i = segEnd
								continue
							}
						}
						for ; i < segEnd; i += stride {
							gather(n, i)
							ctx.ids[n] = i
							ctx.chs[n] = ch
							n++
							if n == batch {
								drain(n)
								n = 0
							}
						}
						if tier != nil {
							// Segment boundary: drain so the next skip
							// decisions see every offer of this channel so far.
							drain(n)
							n = 0
						}
					}
				}
				drain(n)
			}
		}()
	}
	wg.Wait()
	ds.obs.Counter("core_scan_batches").Add(batches.Load())
	shards := make([]*topk.Queue, channels)
	for q := range tops {
		for ch := range shards {
			shards[ch] = queues[ch*nq+q]
			totals[q].Add(stats[ch*nq+q])
		}
		tops[q] = topk.Merge(ks[q], shards...).Results()
	}
	return tops, totals
}

// skipStripe decides, at the entry of stripe seg of channel ch, whether the
// whole remaining segment can be skipped. Sound because (a) the decision is
// only taken when the shard queue is already full, (b) a full queue rejects
// offers with Score <= Min() given that later features have larger
// FeatureIDs (the queue's tie-break), and (c) the walk visits a channel's
// features in ascending FeatureID order. Partial stripes (sub-range start/
// end mid-stripe) are covered by the full stripe's envelope, which is a
// superset of any sub-range's — the bound is merely looser, never unsound.
func skipStripe(bnd *nn.BoundScorer, tier *boundTier, qfv []float32, q *topk.Queue, ch int, seg int64, ps *PruneStats) bool {
	floor, full := q.Min()
	if !full {
		return false
	}
	ps.StripesChecked++
	if bnd.UpperBound(qfv, &tier.envs[ch][seg]) <= floor {
		ps.StripesSkipped++
		return true
	}
	return false
}

// rerank re-scores cached top-K features against the new query at full
// precision, batching them through the same pooled GEMM contexts the sweep
// uses (a hit re-scores tens of features — one or two batches). Like the
// sweep's, its entries carry no ObjectID. Every cached feature is in range:
// an entry answers the database's current identity, and PrefetchHistory
// checks what it inserts. A declared database keeps a copy as cached.
func (ds *DeepStore) rerank(net *nn.Network, st *dbState, qfv []float32, cached []topk.Entry, k int) []topk.Entry {
	if st.vectors == nil {
		return slices.Clone(cached)
	}
	q := []*topk.Queue{topk.New(k)}
	ctx := ds.pools.get(net, ds.scoreBatch())
	defer ctx.release()
	row := ctx.scoreRows(1)[0]
	n := 0
	flush := func() {
		ctx.bs.ScoreBatch(row, qfv, ctx.dfvs[:n])
		ctx.offer(q, 1, 0, row, n)
		n = 0
	}
	for _, e := range cached {
		ctx.dfvs[n] = st.vectors[e.FeatureID]
		ctx.ids[n] = e.FeatureID
		ctx.chs[n] = 0
		n++
		if n == len(ctx.ids) {
			flush()
		}
	}
	flush()
	return q[0].Results()
}

// stampObjectIDs sets each answer's ObjectID from layout, the database's
// current one: an answer names features, and their addresses are derived
// here, once, whatever produced it — sweep, rerank or cache hit.
func stampObjectIDs(layout ftl.DBLayout, top []topk.Entry) {
	for i := range top {
		top[i].ObjectID = layout.ObjectID(top[i].FeatureID)
	}
}

// latencyBucketsMs is the ladder of every latency histogram the engine
// observes into, built once (a histogram copies it when first created).
var latencyBucketsMs = obs.LatencyBucketsMs()

// stageMetrics names the latency histogram of each stage a query reports,
// "core_stage_<stage>_ms", built once so an observation concatenates nothing.
var stageMetrics = func() map[string]string {
	m := make(map[string]string)
	for _, s := range []string{obs.StageQCacheLookup, obs.StageScan, obs.StageSharedScan,
		obs.StageSchedQueue, obs.StageBoundCheck, obs.StageRerank, obs.StageRerankExact,
		obs.StageDMA, obs.StageHistAppend} {
		m[s] = "core_stage_" + s + "_ms"
	}
	return m
}()

// observeStage records one stage duration in the stage's latency histogram.
func (ds *DeepStore) observeStage(stage string, d sim.Duration) {
	name, ok := stageMetrics[stage]
	if !ok {
		name = "core_stage_" + stage + "_ms"
	}
	ds.obs.Histogram(name, latencyBucketsMs).Observe(d.Seconds() * 1e3)
}

func (ds *DeepStore) finishQuery(r *QueryResult) {
	ds.stats.Queries++
	if r.CacheHit {
		ds.stats.CacheHits++
		ds.obs.Counter("core_cache_hits").Inc()
	}
	ds.stats.SimTime += r.Latency
	ds.stats.TotalJ += r.Energy.Total()
	ds.obs.Counter("core_queries").Inc()
	ds.obs.Counter("core_features_scanned").Add(r.FeaturesScanned)
	ds.obs.Histogram("core_query_latency_ms", latencyBucketsMs).Observe(r.Latency.Seconds() * 1e3)
	for _, s := range r.Stages {
		ds.observeStage(s.Name, s.Dur)
	}
}

// record files r in the result table under its id, for GetResults.
func (ds *DeepStore) record(r *QueryResult) QueryID {
	ds.queries[r.ID] = &queryState{result: r}
	return r.ID
}

// GetResults retrieves a query's top-K results (getResults), charging the
// DMA of the results to host memory on the external link (deliver). A result
// stays re-fetchable until resultKeep newer ones have been fetched; after
// that its id is unknown. The returned TopK belongs to the caller: editing it
// changes no later query's answer.
func (ds *DeepStore) GetResults(id QueryID) (*QueryResult, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st, ok := ds.queries[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown query %d", id)
	}
	ds.deliver(st.result)
	if !st.fetched {
		st.fetched = true
		if len(ds.fetched) < resultKeep {
			ds.fetched = append(ds.fetched, id)
		} else {
			delete(ds.queries, ds.fetched[ds.fetchedHead])
			ds.fetched[ds.fetchedHead] = id
			ds.fetchedHead = (ds.fetchedHead + 1) % resultKeep
		}
	}
	// Return a snapshot so callers never observe a later GetResults call's
	// DMA accounting mutating their result. Stages is deep-copied because
	// later calls append to it.
	out := *st.result
	out.Stages = append([]obs.Stage(nil), st.result.Stages...)
	return &out, nil
}

// deliver charges the DMA of r's rows (address and score each) to host
// memory on the external link, adding it to the query's latency and the
// engine's SimTime: the host observes delivery. Callers hold ds.mu.
func (ds *DeepStore) deliver(r *QueryResult) {
	before := ds.engine.Now()
	ds.dev.External.Transfer(int64(len(r.TopK))*16, nil)
	ds.engine.Run()
	dma := sim.Duration(ds.engine.Now() - before)
	r.charge(obs.StageDMA, dma, energy.Breakdown{})
	ds.stats.SimTime += dma
	ds.obs.Counter("core_get_results").Inc()
	ds.observeStage(obs.StageDMA, dma)
	ds.tracer.Add(obs.Span{Name: obs.StageDMA, Cat: "core", TID: int64(r.ID), Start: before, Dur: dma})
}
