// Package core implements DeepStore itself (§4): the in-storage query engine
// that runs on the SSD's embedded cores, the Table 2 programming API
// (writeDB/readDB/appendDB/loadModel/query/getResults/setQC), map-reduce
// scheduling of similarity scans across the in-storage accelerators, the
// similarity-based query cache, and top-K result merging.
//
// The runtime is dual-natured, like the paper's artifact: queries are
// executed functionally (real float32 similarity scores over materialized
// feature vectors, so examples return meaningful top-K results) while their
// latency and energy come from the event-driven device model.
package core

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/qhist"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/systolic"
	"repro/internal/topk"
)

// ModelID identifies a loaded SCN computation graph (loadModel, Table 2).
type ModelID uint64

// QueryID identifies a submitted query (query/getResults, Table 2).
type QueryID uint64

// DefaultScoreBatch is the features-per-batch the scan gathers. 64 rows are
// enough to amortize each weight panel's memory traffic while keeping
// per-worker scratch small (see DESIGN.md on batch-size selection).
const DefaultScoreBatch = 64

// DefaultPruneStripe is the features-per-stripe of the exact-pruning bound
// tier when Options.PruneStripeFeatures is zero: fine enough that one cold
// stripe cannot hide many skippable features, coarse enough that the table
// stays thousands of times smaller than the data.
const DefaultPruneStripe = 64

// Options configures a DeepStore instance.
type Options struct {
	// Device is the simulated SSD configuration; zero value means
	// ssd.DefaultConfig.
	Device ssd.Config
	// DefaultLevel selects the accelerator level used when a query does
	// not specify one. The §6 recommendation is channel level.
	DefaultLevel accel.Level
	// TimingWindow, when positive, lets a query's scan stop simulating
	// once its batch cycle is proven; 0 simulates every batch. The value
	// itself steers nothing; see accel.ScanRequest.WindowFeaturesPerAccel.
	TimingWindow int64
	// Prune enables the exact stripe-pruning tier: WriteDB/AppendDB/ReorgDB
	// build per-channel-stripe bound tables (persisted page-aligned next to
	// the data), and the scan skips stripes whose score upper bound cannot
	// beat the current top-K floor. Results are bit-identical to the dense
	// scan (see DESIGN.md "Exact scan pruning"); only latency, energy, and
	// the bound_check stage change.
	Prune bool
	// PruneStripeFeatures is the per-channel stripe granularity of the bound
	// tier (0 = DefaultPruneStripe). Results do not depend on it.
	PruneStripeFeatures int
	// Quantized enables the int8 scoring path (§7): WriteDB/AppendDB build a
	// quantized feature table persisted next to the fp32 data, and the scan
	// scores int8 activations through GemmInt8 with flash, NoC, and MAC
	// costs charged at the narrow width. With RerankMargin == 0 the
	// int8 top-K is returned directly (fast approximate mode); see
	// RerankMargin for the exact mode. Spec-only (DeclareDB) databases have
	// no vectors to quantize and fall back to fp32 charging.
	Quantized bool
	// RerankMargin > 0 selects two-pass exact quantized mode: the int8 scan
	// collects K·RerankMargin candidates and a float32 rerank of the
	// candidates restores the exact top-K — bit-identical to the fp32 dense
	// scan when the margin covers the quantization perturbation (see
	// DESIGN.md §12), at a fraction of the fp32 scan's flash traffic. The
	// rerank is charged as the rerank_exact stage. Ignored unless Quantized.
	RerankMargin int
	// History enables the persistent query-history store (DESIGN.md §15):
	// every query appends a hot fixed-width record plus a cold payload,
	// charged as the hist_append stage, persisted through Checkpoint, and
	// mined for learned admission, prefetch, and placement.
	History bool
	// CacheAdmission selects the query cache's admission/eviction policy.
	// The zero value is plain LRU; AdmissionLearned mines the query history
	// for frequency + recency + observed per-group hit accuracy. With no
	// mined history — including History disabled entirely, where nothing is
	// ever mined — learned admission behaves bit-identically to LRU (the
	// equivalence the core test suite locks down).
	CacheAdmission CacheAdmission

	// scoreBatch overrides DefaultScoreBatch as the scan's gather width (0 =
	// the default). Only this package's tests set it, to prove that results
	// do not depend on it.
	scoreBatch int
}

// CacheAdmission selects how the query cache admits and evicts under
// pressure (Options.CacheAdmission).
type CacheAdmission int

const (
	// AdmissionLRU is the classic policy: always admit, evict the least
	// recently used entry.
	AdmissionLRU CacheAdmission = iota
	// AdmissionLearned gates admission on statistics mined from the query
	// history: a candidate must out-score the weakest resident entry
	// (frequency × recency decay × observed per-group hit accuracy), and
	// eviction picks that weakest entry instead of the LRU tail.
	AdmissionLearned
)

// String names the admission policy.
func (a CacheAdmission) String() string {
	switch a {
	case AdmissionLRU:
		return "lru"
	case AdmissionLearned:
		return "learned"
	default:
		return fmt.Sprintf("CacheAdmission(%d)", int(a))
	}
}

// ErrQuantPruneApprox rejects the unsound Options combination of the
// approximate quantized scan with the exact-pruning tier: stripe envelopes
// are float32 score bounds, and int8 scores can exceed them, so pruning
// against an int8 top-K floor could silently drop qualifying features. The
// combination is allowed in two-pass exact mode (RerankMargin > 0), where
// the float32 rerank absorbs the perturbation.
var ErrQuantPruneApprox = fmt.Errorf(
	"core: Options.Prune with Options.Quantized requires two-pass exact mode (RerankMargin > 0): stripe bounds are float32 envelopes and do not bound int8 scan scores")

// DefaultOptions returns the evaluation configuration: channel-level
// accelerators on the §6.1 device.
func DefaultOptions() Options {
	return Options{
		Device:       ssd.DefaultConfig(),
		DefaultLevel: accel.LevelChannel,
		TimingWindow: 1,
	}
}

type dbState struct {
	meta *ftl.DBMeta
	// vectors are the materialized features (examples scale). nil for
	// spec-only databases created through DeclareDB.
	vectors [][]float32
	// bounds is the in-DRAM copy of the database's stripe-bound table (nil
	// when Options.Prune is off, the database is spec-only, or the table
	// build failed — all of which fall back to the dense scan).
	bounds *boundTier
	// quant is the in-memory mirror of the database's persisted int8 table
	// (nil when Options.Quantized is off, the database is spec-only, or the
	// table build failed — all of which fall back to the fp32 scan).
	quant *quantState
	// migrating interlocks the database while an online rebalance copies a
	// range out of it: mutating admin ops (AppendDB, ReorgDB, DeleteDB)
	// fail with ErrMigrating between BeginMigration and EndMigration so the
	// copied range cannot be invalidated mid-move. Queries are unaffected —
	// the move is routed around, not locked out. WriteDB always creates a
	// fresh database, so it needs no interlock.
	migrating bool
	// ident names the content (contentIdent; AppendDB keeps it): a cached or
	// recorded answer applies iff it carries the current ident.
	ident uint64
}

type queryState struct {
	result *QueryResult
	// fetched is set by the first GetResults; only fetched results are ever
	// dropped from the table.
	fetched bool
}

// resultKeep is how many fetched results stay re-fetchable. A fetched result
// has been delivered, so the table keeps it only as a courtesy to callers
// that read a result more than once; without a bound a long-lived engine
// pins every top-K it ever returned.
const resultKeep = 1024

// QueryResult is what getResults returns, plus the simulated cost. A
// delivered TopK belongs to the caller: no later query reads its array.
type QueryResult struct {
	// ID is the query's id, also on Do's results, which no table keeps.
	ID   QueryID
	TopK []topk.Entry
	// CacheHit reports whether the query cache served the query.
	CacheHit bool
	// Latency is the simulated in-storage execution time.
	Latency sim.Duration
	// Energy is the modeled energy of the execution.
	Energy energy.Breakdown
	// FeaturesScanned is how many database features the SCN compared
	// (the full range on a miss, the cached top-K on a hit).
	FeaturesScanned int64
	// Stages is the per-stage latency breakdown, in execution order
	// (qcache_lookup, then bound_check when the pruning tier is active,
	// then scan or rerank, then rerank_exact in two-pass quantized mode,
	// then one dma stage per delivery: one from Do, one per GetResults
	// call). Stage durations always sum exactly to Latency.
	Stages []obs.Stage
	// Prune reports what the exact-pruning tier did for this query (all
	// zeros when the tier is inactive or the query hit the cache).
	Prune PruneStats
	// Err is a per-query failure inside a batch: Do returns a refused spec's
	// result with Err set (and no TopK) while its batch-mates run, and the
	// Server delivers such a result on the submission channel rather than
	// closing it silently. Always nil from Query, QueryMulti and GetResults,
	// which report errors directly.
	Err error
}

// charge appends one stage to r, adding its duration to Latency and its
// energy to Energy, so the stages keep summing to Latency.
func (r *QueryResult) charge(stage string, d sim.Duration, e energy.Breakdown) {
	r.Latency += d
	r.Stages = append(r.Stages, obs.Stage{Name: stage, Dur: d})
	r.Energy.Add(e)
}

// PruneStats counts the exact-pruning tier's work on one scan: how many
// stripe bounds were evaluated against the top-K floor, how many stripes
// were skipped, and how many feature comparisons those skips avoided.
// FeaturesScanned + Prune.FeaturesSkipped always equals the dense scan's
// FeaturesScanned for the same range.
type PruneStats struct {
	StripesChecked  int64
	StripesSkipped  int64
	FeaturesSkipped int64
}

// Add accumulates other into s (cluster fan-out and sweep aggregation).
func (s *PruneStats) Add(other PruneStats) {
	s.StripesChecked += other.StripesChecked
	s.StripesSkipped += other.StripesSkipped
	s.FeaturesSkipped += other.FeaturesSkipped
}

// Stats aggregates engine activity.
type Stats struct {
	Queries   uint64
	CacheHits uint64
	SimTime   sim.Duration
	TotalJ    float64
}

// DeepStore is one in-storage intelligent-query engine instance.
//
// All exported methods are safe for concurrent use. A single mutex guards
// the engine state — the event-driven simulator and its virtual clock, the
// model and database tables, the query table, the query cache, and the
// aggregate stats — serializing simulated-time accounting exactly as the
// paper's single-dispatcher query engine does (§4.7.1). Parallelism lives
// inside a query (the sharded functional scan), not across the simulated
// timeline, which keeps simulated time deterministic under concurrent
// callers.
type DeepStore struct {
	opts   Options
	engine *sim.Engine
	dev    *ssd.Device

	// mu guards everything below plus the device/engine pair above.
	mu sync.Mutex

	models      map[ModelID]*nn.Network
	nextModelID ModelID

	dbs map[ftl.DBID]*dbState

	// queries is the result table: every unfetched result, plus the newest
	// resultKeep fetched ones, whose ids sit in the fetched ring (oldest at
	// fetchedHead once full).
	queries     map[QueryID]*queryState
	nextQueryID QueryID
	fetched     []QueryID
	fetchedHead int

	// Query cache (§4.6) and its resident (slot scopes); nil until SetQC.
	qc          *qcache.Cache[cacheQuery]
	qcr         *qcResident
	qcn         *nn.Network
	qcThreshold float64

	// Query-history store (DESIGN.md §15); nil unless Options.History.
	// histMined is the learned admission model, always exactly
	// qhist.MineGroups(hist.Records()): every append folds its record in and
	// the record it retires out; nil unless AdmissionLearned too. Both are
	// guarded by mu, like the cache whose policy reads them.
	hist      *qhist.Store
	histMined map[uint64]qhist.GroupStat

	// pools hands out per-worker batched-scoring contexts; keyed by
	// network, safe for concurrent use without holding mu.
	pools batchPools

	// costs memoises networkCost; guarded by mu.
	costs map[costKey]systolic.NetworkCost

	stats Stats

	// obs and tracer are the engine's observability sinks: counters and
	// latency histograms land in obs, per-query stage spans and flash page
	// reads land in tracer (on the simulated clock).
	obs    *obs.Registry
	tracer *obs.Tracer
}

// New creates a DeepStore engine on a fresh simulated device.
func New(opts Options) (*DeepStore, error) {
	if opts.Device.Geometry.Channels == 0 {
		opts.Device = ssd.DefaultConfig()
	}
	if opts.RerankMargin < 0 {
		return nil, fmt.Errorf("core: negative RerankMargin %d", opts.RerankMargin)
	}
	if opts.Quantized && opts.Prune && opts.RerankMargin == 0 {
		return nil, ErrQuantPruneApprox
	}
	switch opts.CacheAdmission {
	case AdmissionLRU, AdmissionLearned:
	default:
		return nil, fmt.Errorf("core: unknown CacheAdmission %d", int(opts.CacheAdmission))
	}
	e := sim.NewEngine()
	dev, err := ssd.New(e, opts.Device)
	if err != nil {
		return nil, err
	}
	ds := &DeepStore{
		opts:        opts,
		engine:      e,
		dev:         dev,
		models:      make(map[ModelID]*nn.Network),
		nextModelID: 1,
		dbs:         make(map[ftl.DBID]*dbState),
		queries:     make(map[QueryID]*queryState),
		nextQueryID: 1,
		costs:       make(map[costKey]systolic.NetworkCost),
		obs:         obs.NewRegistry(),
		tracer:      obs.NewTracer(0),
	}
	ds.tracer.CountDrops(ds.obs.Counter("obs_tracer_dropped_spans"))
	dev.AttachObs(ds.obs, ds.tracer)
	ds.pools.batch = ds.scoreBatch()
	ds.pools.quantized = opts.Quantized
	if opts.History {
		ds.hist = qhist.NewStore()
		if opts.CacheAdmission == AdmissionLearned {
			ds.histMined = make(map[uint64]qhist.GroupStat, 16)
		}
	}
	return ds, nil
}

// scoreBatch resolves the effective features-per-batch of the scan's gather.
func (ds *DeepStore) scoreBatch() int {
	if ds.opts.scoreBatch > 0 {
		return ds.opts.scoreBatch
	}
	return DefaultScoreBatch
}

// Device exposes the underlying simulated SSD (for inspection and tests).
func (ds *DeepStore) Device() *ssd.Device { return ds.dev }

// FlashStats snapshots the device's flash activity counters — including the
// read-retry and read-failure counts of the fault model (Options.Device.
// FlashFaults) — under the engine lock, so it is consistent with SimTime.
func (ds *DeepStore) FlashStats() flash.Stats {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.dev.Flash.Stats()
}

// Stats returns engine counters.
func (ds *DeepStore) Stats() Stats {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.stats
}

// Metrics returns the engine's metrics registry. Handles are stable, so
// callers can register their own counters alongside the engine's.
func (ds *DeepStore) Metrics() *obs.Registry { return ds.obs }

// Tracer returns the engine's span tracer (per-query stages, flash page
// reads, DMA transfers — all on the simulated clock).
func (ds *DeepStore) Tracer() *obs.Tracer { return ds.tracer }

// MetricsSnapshot exports the registry plus the subsystem stat blocks —
// flash activity (including fault-model retries/failures) and the query
// cache — folded in as prefixed counters, all under the engine lock so the
// snapshot is consistent with SimTime.
func (ds *DeepStore) MetricsSnapshot() obs.Snapshot {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	snap := ds.obs.Snapshot()
	fs := ds.dev.Flash.Stats()
	snap.Counters["flash_page_reads"] = int64(fs.PageReads)
	snap.Counters["flash_page_programs"] = int64(fs.PagePrograms)
	snap.Counters["flash_block_erases"] = int64(fs.BlockErases)
	snap.Counters["flash_bus_bytes"] = int64(fs.BusBytes)
	snap.Counters["flash_read_retries"] = int64(fs.ReadRetries)
	snap.Counters["flash_read_failures"] = int64(fs.ReadFailures)
	// Lock-discipline audit (covered by TestMetricsSnapshotRace): the qcache
	// counters below are plain fields mutated on the Lookup/Insert hit path,
	// so reading them is only safe because every engine code path touches
	// ds.qc under ds.mu — which this method holds. Never read ds.qc (or the
	// history fields) outside the engine lock.
	if ds.qc != nil {
		qs := ds.qc.Stats()
		snap.Counters["qcache_lookups"] = int64(qs.Lookups)
		snap.Counters["qcache_hits"] = int64(qs.Hits)
		snap.Counters["qcache_misses"] = int64(qs.Misses)
		snap.Counters["qcache_insertions"] = int64(qs.Insertions)
		snap.Counters["qcache_evictions"] = int64(qs.Evictions)
		snap.Counters["qcache_comparisons"] = int64(qs.Comparisons)
		snap.Counters["qcache_admission_rejects"] = int64(qs.AdmissionRejects)
		snap.Counters["qcache_activations"] = int64(qs.Activations)
	}
	if ds.hist != nil {
		snap.Counters["hist_records"] = int64(ds.hist.Len())
		snap.Counters["hist_hot_bytes"] = ds.hist.HotBytes()
		snap.Counters["hist_cold_bytes"] = ds.hist.ColdBytes()
	}
	snap.Gauges["sim_time_ms"] = ds.stats.SimTime.Seconds() * 1e3
	snap.Gauges["energy_j"] = ds.stats.TotalJ
	return snap
}

// WriteChromeTrace exports the engine's span trace in Chrome trace-event
// format (chrome://tracing, Perfetto).
func (ds *DeepStore) WriteChromeTrace(w io.Writer) error {
	return ds.tracer.WriteChromeTrace(w)
}

// Now returns the engine's virtual time.
func (ds *DeepStore) Now() sim.Time {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.engine.Now()
}

// AdvanceTo moves the engine's virtual clock forward to t when the device is
// idle — the open-loop serving driver uses it to let simulated time pass
// between arrivals (a query arriving at t must not be charged queueing delay
// for idle time before it existed). A timestamp at or before the current
// clock is a no-op; the call never rewinds time.
func (ds *DeepStore) AdvanceTo(t sim.Time) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	now := ds.engine.Now()
	if t <= now {
		return
	}
	ds.engine.After(sim.Duration(t-now), func() {})
	ds.engine.Run()
}

func (ds *DeepStore) db(id ftl.DBID) (*dbState, error) {
	st, ok := ds.dbs[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown database %d", id)
	}
	return st, nil
}

func (ds *DeepStore) model(id ModelID) (*nn.Network, error) {
	m, ok := ds.models[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown model %d", id)
	}
	return m, nil
}
