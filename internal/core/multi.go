package core

import (
	"fmt"
	"runtime"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topk"
)

// batchItem is one query's slot in a runBatch call: its resolved spec plus
// the cache decision carried from the lookup pass to the scan and finish
// passes.
type batchItem struct {
	spec QuerySpec
	scanKey

	result       *QueryResult
	lookupLat    sim.Duration
	lookupEnergy energy.Breakdown
	hit          bool
	cached       []topk.Entry
	// pending is the query-cache entry's result slice, inserted at lookup
	// time (preserving per-submission cache order) and filled after the
	// sweep computes the real top-K.
	pending []topk.Entry
}

// scanGroup is the cache-missing queries of a batch that share one sweep.
type scanGroup struct {
	key     scanKey
	members []int // indices into the batch's items, in submission order
}

// QueryMulti submits a batch of queries that share scans: cache-missing
// queries over the same (model, database range, level) are grouped, and
// each group pays ONE event-driven sweep — one flash read stream, one
// weight-streaming pass — while the functional scoring packs all of the
// group's queries into shared GEMM batches (nn.BatchScorer.ScoreMulti).
// Query IDs are returned in spec order.
//
// Equivalence guarantee: every query's top-K (IDs, scores, object IDs),
// cache-hit flag, latency, stage sum, and energy are bit-identical to
// submitting the same specs sequentially through Query — both run the same
// runBatch, Query at width one. The query cache sees lookups and inserts in
// exactly submission order (inserted entries' results are filled in after
// the sweep, which no cache decision depends on), and each query is still
// charged the full scan latency and energy — what the batch amortizes is the
// device timeline (the engine clock and flash traffic advance once per
// group, not once per query), which is the throughput win MultiQueryBench
// measures. The only intentional difference is the stage name: shared_scan
// instead of scan. Under flash read faults the per-query fault draws depend
// on the number of scans issued, so latencies may differ from the sequential
// oracle; results remain identical.
//
// Validation is all-or-nothing: if any spec is invalid, no query executes
// and no engine state changes.
func (ds *DeepStore) QueryMulti(specs []QuerySpec) ([]QueryID, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	results, err := ds.runSpecs(specs, true)
	if err != nil {
		return nil, err
	}
	ids := make([]QueryID, len(results))
	for i, r := range results {
		ids[i] = ds.record(r)
	}
	return ids, nil
}

// Do runs a batch of queries and delivers their results in one critical
// section. A refused spec comes back with QueryResult.Err set and changes no
// cache, clock or history state; the rest run as one shared batch exactly as
// QueryMulti runs them and are delivered in spec order exactly as GetResults
// delivers. Results keep their query id in QueryResult.ID but never enter the
// result table. The error is non-nil only for an empty batch or a failed scan.
func (ds *DeepStore) Do(specs []QuerySpec) ([]*QueryResult, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	results, err := ds.runSpecs(specs, false)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err == nil {
			ds.deliver(r)
		}
	}
	return results, nil
}

// runSpecs resolves each spec on its own and runs the resolved ones as one
// shared batch, returning one result per spec (a refused one carries only
// Err); with allOrNothing a refusal runs nothing. Callers hold ds.mu.
func (ds *DeepStore) runSpecs(specs []QuerySpec, allOrNothing bool) ([]*QueryResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: empty multi-query batch")
	}
	out := make([]*QueryResult, len(specs))
	var items []batchItem
	for i, spec := range specs {
		key, err := ds.resolveSpec(spec)
		if err != nil {
			err = fmt.Errorf("core: multi query %d: %w", i, err)
			if allOrNothing {
				return nil, err
			}
			out[i] = &QueryResult{Err: err}
			continue
		}
		items = append(items, batchItem{spec: spec, scanKey: key})
	}
	if len(items) == 0 {
		return out, nil
	}
	results, err := ds.runBatch(items, obs.StageSharedScan)
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i] == nil {
			out[i], results = results[0], results[1:]
		}
	}
	return out, nil
}

// runBatch executes resolved queries as one batch — the single miss path
// behind Query (one item, scanStage "scan"), QueryMulti and Do
// ("shared_scan", counted in core_multi_batches) — and returns their
// results, each under a fresh query id. Callers hold ds.mu.
func (ds *DeepStore) runBatch(items []batchItem, scanStage string) ([]*QueryResult, error) {
	t0 := ds.engine.Now()

	// Pass 1 — cache decisions in submission order. Lookup outcomes, LRU
	// promotion, and insertion order depend only on the queries and scopes, so
	// running them up front is indistinguishable from the sequential
	// interleaving; hits on not-yet-swept batch-mates receive a pending
	// entry whose backing array the sweep fills before pass 3 reads it.
	var groups []scanGroup
	for i := range items {
		it := &items[i]
		// Room for the usual four stages: lookup, scan or rerank,
		// hist_append and dma.
		it.result = &QueryResult{Stages: make([]obs.Stage, 0, 4)}
		if ds.qc != nil {
			// The QCN comparisons execute on the channel-level accelerators;
			// their latency AND energy are charged per entry (the comparisons
			// run on real hardware either way — omitting their joules would
			// overstate the cache's Fig. 13/14 energy win).
			entries := ds.qc.Len()
			cached, hit := ds.qc.Lookup(cacheQuery{scope: scopeOf(it.spec, it.st), qfv: it.spec.QFV}, ds.qcThreshold)
			it.lookupLat, it.lookupEnergy = ds.comparisons(ds.qcn, accel.LevelChannel, int64(entries), 1, 0, true)
			if hit {
				it.hit, it.cached = true, cached.Results
				continue
			}
		}
		gi := 0
		for gi < len(groups) && groups[gi].key != it.scanKey {
			gi++
		}
		if gi == len(groups) {
			groups = append(groups, scanGroup{key: it.scanKey})
		}
		groups[gi].members = append(groups[gi].members, i)
		if ds.qc != nil {
			if it.st.vectors != nil {
				it.pending = make([]topk.Entry, min(int64(it.spec.K), it.end-it.start))
			}
			ds.qc.Insert(cacheQuery{scope: scopeOf(it.spec, it.st), qfv: cloneVec(it.spec.QFV)}, it.pending)
		}
	}

	// Pass 2 — one sweep and its event-driven scans per group, in first-miss
	// order.
	for _, g := range groups {
		if err := ds.scanGroup(items, g, scanStage); err != nil {
			return nil, err
		}
	}

	// Pass 3 — re-rank hits (every pending entry is filled by now) and
	// finish all queries in submission order.
	results := make([]*QueryResult, len(items))
	for i := range items {
		it := &items[i]
		r := it.result
		if it.hit {
			// Algorithm 1 line 13: re-rank the cached entry's features
			// against the new query with the SCN.
			n := int64(len(it.cached))
			r.CacheHit = true
			r.TopK = ds.rerank(it.net, it.st, it.spec.QFV, it.cached, it.spec.K)
			r.FeaturesScanned = n
			r.charge(obs.StageQCacheLookup, it.lookupLat, it.lookupEnergy)
			lat, e := ds.comparisons(it.net, it.level, n, 1, 0, false)
			r.charge(obs.StageRerank, lat, e)
		}
		// The answer's ObjectIDs come from the current layout, before the
		// history records them. History appends land in submission order,
		// after the batch's cache decisions (pass 1), so the batch's admission
		// decisions all see the model as it stood before the batch, whereas
		// sequential Query calls would each see their predecessors' records —
		// top-K answers are unaffected, but admission decisions can differ.
		stampObjectIDs(it.st.meta.Layout, r.TopK)
		ds.appendHistory(it.spec, it.st, r)
		ds.finishQuery(r)
		r.ID = ds.nextQueryID
		ds.nextQueryID++
		ds.emitQuerySpans(t0, r)
		results[i] = r
	}
	if scanStage == obs.StageSharedScan {
		ds.obs.Counter("core_multi_batches").Inc()
	}
	return results, nil
}

// scanGroup runs one group's functional sweep — which also makes each
// member's stripe-skip decisions — charges the event-driven scan for exactly
// the features each member survived, and assembles the members' miss results.
// Pruned members can survive different feature counts, so the device timeline
// advances once per DISTINCT survivor count; with pruning off that is exactly
// one scan per group. On a quantized engine in two-pass exact mode the sweep
// collects K·margin candidates per member and the fp32 rerank restores each
// exact top-K before the cache entry is filled.
func (ds *DeepStore) scanGroup(items []batchItem, g scanGroup, scanStage string) error {
	st, net, level := g.key.st, g.key.net, g.key.level
	tier := st.bounds
	exact := st.quant != nil && ds.opts.RerankMargin > 0
	qfvs := make([][]float32, len(g.members))
	ks := make([]int, len(g.members))
	for j, qi := range g.members {
		qfvs[j] = items[qi].spec.QFV
		ks[j] = items[qi].spec.K
		if exact {
			ks[j] *= ds.opts.RerankMargin
		}
	}
	tops, pss := ds.sweep(g.key, qfvs, ks, runtime.GOMAXPROCS(0))
	scans := map[int64]accel.ScanResult{}
	for j, qi := range g.members {
		it := &items[qi]
		r := it.result
		ps := pss[j]
		survivors := g.key.end - g.key.start - ps.FeaturesSkipped
		scanOut, ok := scans[survivors]
		if !ok {
			var err error
			if scanOut, err = ds.simulateScanCount(net, st, level, survivors); err != nil {
				return err
			}
			scans[survivors] = scanOut
		}
		r.FeaturesScanned = survivors
		r.Prune = ps
		if ds.qc != nil {
			r.charge(obs.StageQCacheLookup, it.lookupLat, it.lookupEnergy)
		}
		if tier != nil {
			// Per evaluated stripe the accelerator reads one bound-table
			// entry and propagates the interval's lo and hi halves.
			lat, e := ds.comparisons(net, level, ps.StripesChecked, 2, tier.entryBytes, true)
			r.charge(obs.StageBoundCheck, lat, e)
			ds.recordPruneStats(ps)
		}
		r.charge(scanStage, scanOut.Elapsed, energy.Energy(scanOut.Activity))
		final := tops[j]
		if exact {
			// Each K·margin candidate's fp32 vector is re-read from the data
			// layout and re-scored at full precision.
			lat, e := ds.comparisons(net, level, int64(len(final)), 1, st.meta.Layout.FeatureBytes, true)
			final = ds.rerank(net, st, it.spec.QFV, final, it.spec.K)
			r.charge(obs.StageRerankExact, lat, e)
		}
		if it.pending != nil {
			copy(it.pending, final) // the cache entry keeps its own copy
		}
		r.TopK = final
	}
	if scanStage == obs.StageSharedScan {
		ds.obs.Counter("core_shared_scans").Inc()
		ds.obs.Counter("core_shared_scan_queries").Add(int64(len(g.members)))
	}
	return nil
}
