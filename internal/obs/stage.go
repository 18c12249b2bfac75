package obs

import "repro/internal/sim"

// Canonical span/stage names — the taxonomy every instrumented layer uses,
// so breakdown tables and trace files agree on vocabulary (see DESIGN.md
// "Observability").
const (
	// StageQCacheLookup is the QCN sweep of the query cache (§4.6).
	StageQCacheLookup = "qcache_lookup"
	// StageScan is the event-driven accelerator scan of the database range
	// (flash reads, weight streaming, and systolic compute overlap inside
	// it; the per-page detail is in the "flash" span category).
	StageScan = "scan"
	// StageSharedScan is the scan stage of a query served by a shared
	// multi-query sweep (core.QueryMulti): the same event-driven scan as
	// StageScan, but its flash and weight traffic are paid once for the
	// whole batch.
	StageSharedScan = "shared_scan"
	// StageSchedQueue is the time a query waited in its tenant's admission
	// queue before its batch dispatched (core.Server).
	StageSchedQueue = "sched_queue"
	// StageBoundCheck is the stripe-bound table consultation of the exact
	// pruning tier: per full stripe-queue evaluation, one table-entry read
	// plus the interval-propagation compare on the channel accelerator.
	StageBoundCheck = "bound_check"
	// StageRerank is the SCN re-scoring of a cache hit's stored top-K.
	StageRerank = "rerank"
	// StageRerankExact is the float32 re-scoring of the int8 scan's K·margin
	// candidate set in two-pass exact quantized mode (DESIGN.md §12).
	StageRerankExact = "rerank_exact"
	// StageDMA is the getResults transfer of the top-K to the host.
	StageDMA = "dma"
	// StageHistAppend is the query-history append: the fixed-width hot
	// record plus the cold payload crossing controller DRAM, and in learned
	// admission mode the fold that keeps the model current (DESIGN.md §15).
	StageHistAppend = "hist_append"
	// SpanFlashRead is one page read (array sense + channel bus transfer).
	SpanFlashRead = "flash_read"
	// SpanStream is one StreamToHost sweep (the baseline read-out path).
	SpanStream = "stream_to_host"
	// The device's other page walks (ssd.Walk), one span per call:
	// writeDB's and appendDB's external → program passes, readDB's read-out,
	// the reorg's read → DRAM → program pass, a derived table's and the
	// metadata image's DRAM → program passes, and one read → DRAM → program
	// pass per extent a compaction relocates.
	SpanWriteDB, SpanAppendDB, SpanReadDB        = "write_db", "append_db", "read_db"
	SpanReorg, SpanProgramTable, SpanPersistMeta = "reorg", "program_table", "persist_meta"
	SpanGC                                       = "gc"
	// SpanShard is one shard's slice of a cluster fan-out.
	SpanShard = "shard"
	// SpanMigrateOut is one migration read-out of a contiguous feature range
	// on the source device (flash reads → DRAM → external link), charged on
	// that device's simulated clock like any other flash activity. Queries
	// racing the move keep their own stage taxonomy untouched, so the
	// stage-sum == latency invariant is unaffected by migration traffic.
	SpanMigrateOut = "migrate_out"
	// SpanMigrate is one rebalance chunk on the cluster timeline: the source
	// read-out plus the destination programs that precede a routing flip.
	SpanMigrate = "migrate"
	// SpanRetry is one re-submission of a command by the proto client.
	SpanRetry = "retry"
)

// Stage is one component of a query's end-to-end latency. A query's stages
// are disjoint on the simulated timeline, so their durations sum exactly to
// the reported Result.Latency (test-enforced).
type Stage struct {
	Name string
	Dur  sim.Duration
}

// SumStages totals the stage durations.
func SumStages(stages []Stage) sim.Duration {
	var sum sim.Duration
	for _, s := range stages {
		sum += s.Dur
	}
	return sum
}

// StageStat aggregates one stage across many queries.
type StageStat struct {
	Name  string
	Total sim.Duration
	Count int64
}

// SumStageStats totals the aggregated per-stage durations.
func SumStageStats(stats []StageStat) sim.Duration {
	var sum sim.Duration
	for _, s := range stats {
		sum += s.Total
	}
	return sum
}

// AccumulateStages merges a query's stages into the running per-stage stats,
// keeping first-seen stage order (the canonical pipeline order, since every
// query emits stages in execution order).
func AccumulateStages(stats []StageStat, stages []Stage) []StageStat {
	for _, s := range stages {
		found := false
		for i := range stats {
			if stats[i].Name == s.Name {
				stats[i].Total += s.Dur
				stats[i].Count++
				found = true
				break
			}
		}
		if !found {
			stats = append(stats, StageStat{Name: s.Name, Total: s.Dur, Count: 1})
		}
	}
	return stats
}

// QuantileDurations is Quantile over simulated durations sorted ascending;
// an empty sample returns 0.
func QuantileDurations(sorted []sim.Duration, p float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[quantileIndex(len(sorted), p)]
}
