package core

import (
	"fmt"
	"slices"

	"repro/internal/energy"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/qhist"
	"repro/internal/reorg"
	"repro/internal/sim"
	"repro/internal/topk"
)

// Query history and learned admission (DESIGN.md §15). With Options.History
// on, every finished query appends one fixed-width hot record plus a cold
// payload (full query vector + top-K) to the in-DRAM history store, charged
// on the simulated clock as the hist_append stage. The store retains a fixed
// window of the most recent records, so everything derived from it below —
// the mined model, heat, the checkpointed image — is bounded by that window
// and by nothing else. Checkpoint flushes the store into its own flash block
// columns (an ftl.HistRegion), so history survives restarts through
// RestoreHistory. With Options.CacheAdmission == AdmissionLearned, the
// engine keeps the window's per-group statistics, updated by every append,
// and they gate cache admission and pick eviction victims.

// ErrHistoryCorrupt is returned (wrapped) by RestoreHistory when a persisted
// history image fails validation; the engine has already degraded to an
// empty cold-start history and plain-LRU-equivalent admission.
var ErrHistoryCorrupt = qhist.ErrCorrupt

// histMineCyclesPerRecord is the embedded-core cost of folding one hot
// record into, or out of, the mined group statistics (hash + accumulate).
const histMineCyclesPerRecord = 8

// appendHistory records one finished query, charging the hot-record and
// cold-payload DRAM write on the simulated clock and folding the cost into
// the result as the hist_append stage (so the stage-sum == latency invariant
// holds). In learned mode the same stage also pays for keeping the admission
// model equal to MineGroups of the window: the new record is folded in and
// the one it retires is read back and folded out. Callers hold ds.mu and must
// call this BEFORE finishQuery, on hit and miss paths alike.
func (ds *DeepStore) appendHistory(spec QuerySpec, st *dbState, r *QueryResult) {
	if ds.hist == nil {
		return
	}
	payloadBytes := int64(qhist.PayloadBytes(len(spec.QFV), len(r.TopK)))
	top := int64(-1)
	if len(r.TopK) > 0 {
		top = r.TopK[0].FeatureID
	}
	var flags uint32
	if r.CacheHit {
		flags = qhist.FlagHit
	}
	if spec.DBStart != 0 || spec.DBEnd != 0 {
		flags |= qhist.FlagRanged
	}
	before := ds.engine.Now()
	ds.dev.DRAM.Transfer(qhist.RecordBytes+payloadBytes, nil)
	ds.engine.Run()
	dur := sim.Duration(ds.engine.Now() - before)
	// A full window retires its oldest record on this append.
	var oldest qhist.Record
	if recs := ds.hist.Records(); len(recs) > 0 {
		oldest = recs[0]
	}
	rec := ds.hist.AppendQuery(qhist.Record{
		Time:       int64(ds.engine.Now()),
		DB:         uint64(spec.DB),
		Ident:      st.ident,
		Model:      uint64(spec.Model),
		Group:      qhist.GroupOf(spec.QFV),
		K:          uint32(spec.K),
		Flags:      flags,
		Latency:    int64(r.Latency),
		TopFeature: top,
		Digest:     qhist.Digest(r.TopK),
	}, spec.QFV, r.TopK)
	retired := ds.hist.First() > oldest.Seq
	if ds.histMined != nil {
		qhist.Mine(ds.histMined, rec)
		cycles, readBytes := int64(histMineCyclesPerRecord), int64(0)
		if retired {
			qhist.Unmine(ds.histMined, oldest)
			cycles += histMineCyclesPerRecord
			readBytes = qhist.RecordBytes
		}
		dur += sim.FromSeconds(float64(readBytes)/ds.dev.Config.DRAMBandwidth +
			float64(cycles)/ds.dev.Config.CoreFreqHz)
	}
	r.charge(obs.StageHistAppend, dur, energy.Breakdown{})
	ds.obs.Counter("core_hist_appends").Inc()
	if retired {
		ds.obs.Counter("core_hist_retired").Inc()
	}
	ds.gaugeHistory()
}

// gaugeHistory publishes what the store retains; called wherever that changes.
func (ds *DeepStore) gaugeHistory() {
	ds.obs.Gauge("core_hist_retained_records").Set(float64(ds.hist.Len()))
	ds.obs.Gauge("core_hist_retained_bytes").Set(float64(ds.hist.HotBytes() + ds.hist.ColdBytes()))
}

// learnedPolicy adapts the mined history to qcache.Policy. Its hooks run
// inside qc.Insert, which the engine only ever calls under ds.mu, so reading
// ds.histMined here is lock-safe. With no mined statistics (history disabled,
// or an empty window) it defers entirely to LRU — the bit-equivalence the
// equivalence suite pins down.
type learnedPolicy struct{ ds *DeepStore }

// Key is the query's history group, the fingerprint the mined statistics are
// keyed by; the cache stores it with the entry.
func (p *learnedPolicy) Key(q cacheQuery) uint64 { return qhist.GroupOf(q.qfv) }

func (p *learnedPolicy) groupScore(g uint64) float64 {
	st, ok := p.ds.histMined[g]
	if !ok {
		return 0
	}
	return st.AdmissionScore(p.ds.hist.NextSeq())
}

// Victim finds the lowest-scoring resident entry from the stored keys — a
// map lookup and an AdmissionScore each, no query vector is touched —
// breaking ties toward the higher index (the more LRU of the two), and
// admits the candidate when its own group scores at least as high.
func (p *learnedPolicy) Victim(key uint64, entries []qcache.Entry[cacheQuery]) (int, bool) {
	if len(p.ds.histMined) == 0 {
		return -1, true
	}
	idx, weakest := -1, 0.0
	for i := range entries {
		s := p.groupScore(entries[i].Key)
		if idx < 0 || s <= weakest {
			idx, weakest = i, s
		}
	}
	return idx, p.groupScore(key) >= weakest
}

// HistoryStats summarizes the history store's state.
type HistoryStats struct {
	Records    uint64 // retained query records (at most the retention window)
	Appended   uint64 // records ever appended to this store
	Retired    uint64 // of those, aged out of the window
	HotBytes   int64  // fixed-width record region
	ColdBytes  int64  // payload region
	Groups     int    // distinct query groups in the learned admission model
	Prefetched uint64 // cache entries re-warmed by PrefetchHistory
}

// Add accumulates other into s (cluster aggregation).
func (s *HistoryStats) Add(other HistoryStats) {
	s.Records += other.Records
	s.Appended += other.Appended
	s.Retired += other.Retired
	s.HotBytes += other.HotBytes
	s.ColdBytes += other.ColdBytes
	s.Groups += other.Groups
	s.Prefetched += other.Prefetched
}

// HistoryStats snapshots the history store (zero value when disabled).
func (ds *DeepStore) HistoryStats() HistoryStats {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.hist == nil {
		return HistoryStats{}
	}
	return HistoryStats{
		Records:    uint64(ds.hist.Len()),
		Appended:   ds.hist.NextSeq(),
		Retired:    ds.hist.First(),
		HotBytes:   ds.hist.HotBytes(),
		ColdBytes:  ds.hist.ColdBytes(),
		Groups:     len(ds.histMined),
		Prefetched: uint64(ds.obs.Counter("core_hist_prefetches").Value()),
	}
}

// HistorySnapshot serializes the current history store (the same bytes
// Checkpoint embeds in the device image). Byte-deterministic for a given
// query sequence; errors when history is disabled.
func (ds *DeepStore) HistorySnapshot() ([]byte, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.hist == nil {
		return nil, fmt.Errorf("core: history disabled (Options.History)")
	}
	return ds.hist.Snapshot(), nil
}

// HistoryRecords returns a copy of the retained hot history records, oldest
// first (tests and offline analysis).
func (ds *DeepStore) HistoryRecords() []qhist.Record {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.hist == nil {
		return nil
	}
	return append([]qhist.Record(nil), ds.hist.Records()...)
}

// RestoreHistory replaces the engine's history store with the one persisted
// in a Checkpoint image, charging the image's trip through controller DRAM,
// and — in learned mode — mines the restored window into the admission model
// so post-restart decisions match the pre-restart engine. An image with no
// history section simply cold-starts. A corrupted or truncated image degrades
// to an empty cold-start history and an empty model (plain-LRU-equivalent
// admission) and returns an error wrapping ErrHistoryCorrupt; it never panics
// and never leaves stale mined state behind.
func (ds *DeepStore) RestoreHistory(img []byte) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.hist == nil {
		return fmt.Errorf("core: history disabled (Options.History)")
	}
	// The learned model is rebuilt from whatever store is installed.
	replace := func(st *qhist.Store) {
		ds.hist = st
		if ds.histMined != nil {
			ds.histMined = qhist.MineGroups(st.Records())
		}
		ds.gaugeHistory()
	}
	degrade := func() { replace(qhist.NewStore()) }
	f, err := ftl.Restore(img)
	if err != nil {
		degrade()
		return fmt.Errorf("%w: unreadable device image: %v", ErrHistoryCorrupt, err)
	}
	region, ok := f.Region(ftl.HistOwner, ftl.HistRegion)
	if !ok {
		degrade()
		return nil
	}
	data := region.Payload
	st, err := qhist.Restore(data)
	if err != nil {
		degrade()
		return fmt.Errorf("core: restore history: %w", err)
	}
	// Charge staging the persisted image back through controller DRAM.
	ds.dev.DRAM.Transfer(int64(len(data)), nil)
	ds.engine.Run()
	replace(st)
	ds.obs.Counter("core_hist_restores").Inc()
	return nil
}

// PrefetchHistory re-warms the query cache from history: the top max query
// groups by admission score have their most recent payload decoded (charged
// as a DRAM read of the cold bytes) and re-inserted in the record's
// whole-database scope. Skipped and counted in core_hist_prefetch_skipped:
// before the payload is read, a record not of its database's current
// identity or a ranged one (qhist.FlagRanged); after it, a query the QCN
// cannot compare or an answer naming a feature outside the database.
// Returns how many entries were inserted; requires history and a cache.
func (ds *DeepStore) PrefetchHistory(max int) (int, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.hist == nil {
		return 0, fmt.Errorf("core: history disabled (Options.History)")
	}
	if ds.qc == nil {
		return 0, fmt.Errorf("core: no query cache configured (SetQC)")
	}
	if max <= 0 {
		return 0, fmt.Errorf("core: prefetch of %d groups", max)
	}
	mined := ds.histMined // the window's groups, kept in learned mode
	if mined == nil {
		mined = qhist.MineGroups(ds.hist.Records())
	}
	ranked := qhist.RankGroups(mined, ds.hist.NextSeq())
	if len(ranked) > max {
		ranked = ranked[:max]
	}
	records, first := ds.hist.Records(), ds.hist.First()
	inserted := 0
	for _, g := range ranked {
		rec := records[mined[g].LastSeq-first]
		st, ok := ds.dbs[ftl.DBID(rec.DB)]
		if !ok || st.ident != rec.Ident || rec.Flags&qhist.FlagRanged != 0 {
			ds.obs.Counter("core_hist_prefetch_skipped").Inc()
			continue
		}
		payload, err := ds.hist.Payload(rec)
		if err != nil {
			return inserted, err
		}
		qfv, tk, err := qhist.DecodePayload(payload)
		if err != nil {
			return inserted, fmt.Errorf("core: prefetch group %#x: %w", g, err)
		}
		ds.dev.DRAM.Transfer(int64(len(payload)), nil)
		ds.engine.Run()
		if len(qfv) != ds.qcn.FeatureElems() || slices.ContainsFunc(tk, func(e topk.Entry) bool {
			return e.FeatureID < 0 || e.FeatureID >= st.meta.Layout.Features
		}) {
			// A query the cache never held (ErrQCNWidth), or a forged answer.
			ds.obs.Counter("core_hist_prefetch_skipped").Inc()
			continue
		}
		ds.qc.Insert(cacheQuery{scope: cacheScope{db: ftl.DBID(rec.DB), ident: rec.Ident, model: ModelID(rec.Model)}, qfv: qfv}, tk)
		inserted++
	}
	ds.obs.Counter("core_hist_prefetches").Add(int64(inserted))
	return inserted, nil
}

// ReorgByHistory mines the history's per-feature demand for one database and
// physically reorders it hottest-stripes-first (reorg.StripeHeat ranking,
// stripes of one feature per channel), so recurring queries' winning
// features land in the earliest — lowest-latency — pages of every channel
// stripe. The move runs through ReorgDB, which honors the ErrMigrating
// interlock and rebuilds the prune/quantized tables. Heat counts only the
// records of the database's current identity, the ones that name its
// current feature order. Returns the applied permutation.
func (ds *DeepStore) ReorgByHistory(id ftl.DBID) ([]int, error) {
	ds.mu.Lock()
	if ds.hist == nil {
		ds.mu.Unlock()
		return nil, fmt.Errorf("core: history disabled (Options.History)")
	}
	st, err := ds.db(id)
	if err != nil {
		ds.mu.Unlock()
		return nil, err
	}
	if st.vectors == nil {
		ds.mu.Unlock()
		return nil, fmt.Errorf("core: database %d is spec-only; nothing to reorganize", id)
	}
	n := len(st.vectors)
	stripe := ds.dev.Config.Geometry.Channels
	heat := qhist.FeatureHeat(ds.hist.Records(), st.ident, int64(n))
	ds.mu.Unlock()

	rows, err := reorg.StripeHeat(heat, stripe)
	if err != nil {
		return nil, err
	}
	order, err := reorg.OrderByHeat(rows, stripe, n)
	if err != nil {
		return nil, err
	}
	if err := ds.ReorgDB(id, order); err != nil {
		return nil, err
	}
	return order, nil
}
