package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Online-rebalance study. A live sharded cluster keeps answering queries
// while a Rebalancer migrates the hottest feature window (picked from the
// cluster's own accumulated demand profile) to a freshly added shard. Every
// answer throughout — before, during, and after the move — is compared
// against an unsplit single-shard oracle holding the same database, so the
// artifact certifies the migration's bit-identical guarantee under load.
// Latency quantiles per phase quantify the serving cost of migrating: the
// "during" p99 against the quiesced ("before") p99. All time is simulated,
// so BENCH_rebalance.json is byte-identical across runs.

// RebalanceConfig sizes the study.
type RebalanceConfig struct {
	App      string // workload application
	Features int    // materialized database size
	K        int    // top-K
	Seed     int64  // database + model + query seed
	Shards   int    // starting shard count (the move adds one)
	// Batches is the query batches driven per phase; BatchQ the queries per
	// batch (each batch runs through the cluster's shared-sweep path).
	Batches int
	BatchQ  int
	// Universe bounds the distinct query population (smaller ⇒ hotter
	// demand concentration for the planner to find).
	Universe int64
	// StripeFeatures is the heat-ranking granularity; WindowStripes the
	// window width PlanRebalance proposes to move. The migration copies
	// one stripe per Rebalancer.Step, interleaved with the "during"
	// phase's query batches.
	StripeFeatures int64
	WindowStripes  int
}

// DefaultRebalance returns the CI-scale study: a 2-shard cluster grown to 3
// by migrating the hottest 4-stripe window under continuous load.
func DefaultRebalance() RebalanceConfig {
	return RebalanceConfig{
		App: "TIR", Features: 600, K: 10, Seed: 7, Shards: 2,
		Batches: 6, BatchQ: 8, Universe: 32,
		StripeFeatures: 20, WindowStripes: 4,
	}
}

// RebalanceRow is one phase's measured service.
type RebalanceRow struct {
	// Phase is "before" (quiesced, pre-move), "during" (migration chunks
	// interleaved with query batches), or "after" (move complete).
	Phase   string  `json:"phase"`
	Shards  int     `json:"shards"`
	Gen     uint64  `json:"gen"` // routing-table generation at phase end
	Queries int     `json:"queries"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	// P99VsQuiesced is this phase's p99 over the "before" phase's p99 (1.0
	// in the "before" row by construction).
	P99VsQuiesced float64 `json:"p99_vs_quiesced"`
	// Mismatches counts answers differing from the unsplit oracle (the
	// bit-identical guarantee: must be 0 in every phase).
	Mismatches int `json:"mismatches"`
	// MovedFeatures/Chunks/SrcReadMs/DstWriteMs describe the migration
	// (zero in the "before" row; the move completes within "during").
	MovedFeatures int64   `json:"moved_features"`
	Chunks        int     `json:"chunks"`
	SrcReadMs     float64 `json:"src_read_ms"`
	DstWriteMs    float64 `json:"dst_write_ms"`
}

// drivePhase runs batches through the live cluster and the oracle,
// comparing every merged top-K bit for bit. step, when non-nil, is invoked
// after each batch (the migration interleaving); it reports whether more
// chunks remain.
func drivePhase(
	live, oracle *cluster.Engines, vec func(q int) []float32, k, batches, batchQ int,
	next *int, step func() (bool, error),
) (lat []sim.Duration, mismatches int, err error) {
	for b := 0; b < batches; b++ {
		qfvs := make([][]float32, batchQ)
		for i := range qfvs {
			qfvs[i] = vec(*next)
			*next++
		}
		la, err := live.Queries(qfvs, k)
		if err != nil {
			return nil, 0, fmt.Errorf("exp: rebalance live batch: %w", err)
		}
		oa, err := oracle.Queries(qfvs, k)
		if err != nil {
			return nil, 0, fmt.Errorf("exp: rebalance oracle batch: %w", err)
		}
		for i := range la {
			lat = append(lat, la[i].Makespan)
			// ObjectIDs are physical flash addresses and legitimately differ
			// between placements; the bit-identical guarantee covers the
			// (FeatureID, Score) ranking.
			same := len(la[i].TopK) == len(oa[i].TopK)
			if same {
				for j := range la[i].TopK {
					if la[i].TopK[j].FeatureID != oa[i].TopK[j].FeatureID ||
						la[i].TopK[j].Score != oa[i].TopK[j].Score {
						same = false
						break
					}
				}
			}
			if !same {
				mismatches++
			}
		}
		if step != nil {
			if done, err := step(); err != nil {
				return nil, 0, err
			} else if done {
				step = nil
			}
		}
	}
	// Batches exhausted with chunks still unmoved: finish the migration
	// inside this phase so "after" really is post-move.
	for step != nil {
		if done, err := step(); err != nil {
			return nil, 0, err
		} else if done {
			step = nil
		}
	}
	return lat, mismatches, nil
}

// RebalanceBench runs the online-rebalance study: quiesced baseline, heat
// accumulation, a planner-chosen migration interleaved with live load, and
// the post-move steady state — every answer checked against the unsplit
// oracle.
func RebalanceBench(cfg RebalanceConfig) ([]RebalanceRow, error) {
	if cfg.Features < 1 || cfg.K < 1 || cfg.Shards < 1 || cfg.Batches < 1 || cfg.BatchQ < 1 {
		return nil, fmt.Errorf("exp: rebalance config %+v invalid", cfg)
	}
	if cfg.Universe < 1 || cfg.StripeFeatures < 1 || cfg.WindowStripes < 1 {
		return nil, fmt.Errorf("exp: rebalance config %+v invalid", cfg)
	}
	app, err := workload.ByName(cfg.App)
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(cfg.Seed)
	db := workload.NewFeatureDB(app, cfg.Features, cfg.Seed+1)
	dims := app.SCN.FeatureElems()

	live, err := newCluster(cfg.Shards, db.Vectors, app.SCN)
	if err != nil {
		return nil, err
	}
	oracle, err := newCluster(1, db.Vectors, app.SCN)
	if err != nil {
		return nil, err
	}
	vec := func(q int) []float32 {
		return workload.QueryVector(workload.Query{SemanticID: int64(q) % cfg.Universe}, dims, cfg.Seed+3)
	}

	next := 0
	beforeLat, beforeMis, err := drivePhase(live, oracle, vec, cfg.K, cfg.Batches, cfg.BatchQ, &next, nil)
	if err != nil {
		return nil, err
	}
	beforeP50, beforeP99 := quantiles(beforeLat)
	beforeRow := RebalanceRow{
		Phase: "before", Shards: live.Shards(), Gen: live.Gen(),
		Queries: len(beforeLat), P50Ms: beforeP50.Milliseconds(), P99Ms: beforeP99.Milliseconds(),
		P99VsQuiesced: 1, Mismatches: beforeMis,
	}

	// The "before" phase accumulated the demand profile the planner reads.
	spec, err := live.PlanRebalance(cfg.StripeFeatures, cfg.WindowStripes)
	if err != nil {
		return nil, fmt.Errorf("exp: rebalance plan: %w", err)
	}
	rb, err := cluster.NewRebalancer(live, spec)
	if err != nil {
		return nil, fmt.Errorf("exp: rebalance start: %w", err)
	}
	duringLat, duringMis, err := drivePhase(live, oracle, vec, cfg.K, cfg.Batches, cfg.BatchQ, &next, rb.Step)
	if err != nil {
		rb.Abort()
		return nil, err
	}
	rep := rb.Report()
	duringP50, duringP99 := quantiles(duringLat)
	duringRow := RebalanceRow{
		Phase: "during", Shards: live.Shards(), Gen: live.Gen(),
		Queries: len(duringLat), P50Ms: duringP50.Milliseconds(), P99Ms: duringP99.Milliseconds(),
		Mismatches:    duringMis,
		MovedFeatures: rep.Moved, Chunks: rep.Chunks,
		SrcReadMs: rep.SrcRead.Milliseconds(), DstWriteMs: rep.DstWrite.Milliseconds(),
	}

	afterLat, afterMis, err := drivePhase(live, oracle, vec, cfg.K, cfg.Batches, cfg.BatchQ, &next, nil)
	if err != nil {
		return nil, err
	}
	afterP50, afterP99 := quantiles(afterLat)
	afterRow := RebalanceRow{
		Phase: "after", Shards: live.Shards(), Gen: live.Gen(),
		Queries: len(afterLat), P50Ms: afterP50.Milliseconds(), P99Ms: afterP99.Milliseconds(),
		Mismatches:    afterMis,
		MovedFeatures: rep.Moved, Chunks: rep.Chunks,
		SrcReadMs: rep.SrcRead.Milliseconds(), DstWriteMs: rep.DstWrite.Milliseconds(),
	}
	if beforeP99 > 0 {
		duringRow.P99VsQuiesced = duringP99.Seconds() / beforeP99.Seconds()
		afterRow.P99VsQuiesced = afterP99.Seconds() / beforeP99.Seconds()
	}
	return []RebalanceRow{beforeRow, duringRow, afterRow}, nil
}

// rebalanceTable tabulates the study.
func rebalanceTable(rows []RebalanceRow) report.Table {
	header := []string{"Phase", "Shards", "Gen", "Queries", "p50 (ms)", "p99 (ms)", "p99 vs quiesced",
		"Mismatch", "Moved", "Chunks", "Src read (ms)", "Dst write (ms)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Phase, fmt.Sprint(r.Shards), fmt.Sprint(r.Gen), fmt.Sprint(r.Queries),
			F(r.P50Ms), F(r.P99Ms), F(r.P99VsQuiesced),
			fmt.Sprint(r.Mismatches), fmt.Sprint(r.MovedFeatures), fmt.Sprint(r.Chunks),
			F(r.SrcReadMs), F(r.DstWriteMs),
		})
	}
	return report.Table{Name: "rebalance", Header: header, Rows: out}
}
