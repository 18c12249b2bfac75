package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workload"
)

// Exact-pruning study (DESIGN.md "Exact scan pruning"). The bound tier skips
// channel stripes whose score upper bound cannot beat the running top-K
// floor — bit-identical results, fewer flash reads and SCN comparisons.
// PruneSweep measures the skip rate and the simulated corpus throughput of a
// pruned engine against a dense one on the same block-clustered database,
// under Zipfian and uniform query traces, and is the artifact CI validates
// (BENCH_prune.json: skip rate > 0 and zero top-K mismatches on the Zipfian
// trace, pruned features/s at least the dense engine's).

// PruneConfig sizes the pruning study.
type PruneConfig struct {
	App            string  // workload application
	Features       int     // materialized database size
	Queries        int     // trace length per distribution
	K              int     // top-K
	StripeFeatures int     // bound-tier stripe granularity (slots per entry)
	Seed           int64   // database + trace seed
	Alpha          float64 // Zipfian skew
	Noise          float64 // in-cluster feature noise and query jitter bound
}

// DefaultPrune returns a CI-scale configuration (a few seconds total). The
// database is block-clustered — each run of Channels*StripeFeatures
// contiguous features shares a semantic centroid, so one block is one stripe
// row and stripe envelopes are tight.
func DefaultPrune() PruneConfig {
	return PruneConfig{App: "TextQA", Features: 2048, Queries: 8, K: 10,
		StripeFeatures: 8, Seed: 7, Alpha: 0.8, Noise: 0.02}
}

// PruneRow is one (trace, engine) cell of the study. Wall-clock time is
// reported for interactive runs but excluded from the JSON artifact so
// BENCH_prune.json is byte-identical across runs of the same configuration.
type PruneRow struct {
	Trace           string  `json:"trace"` // "zipfian" or "uniform"
	Mode            string  `json:"mode"`  // "dense" or "pruned"
	Queries         int     `json:"queries"`
	Features        int     `json:"features"`
	StripeFeatures  int     `json:"stripe_features"`
	StripesChecked  int64   `json:"stripes_checked"`
	StripesSkipped  int64   `json:"stripes_skipped"`
	FeaturesSkipped int64   `json:"features_skipped"`
	SkipRate        float64 `json:"skip_rate"` // features skipped / features scanned densely
	SimSec          float64 `json:"sim_sec"`
	FeaturesSec     float64 `json:"features_per_sec"` // corpus coverage rate: Features*Queries/SimSec
	SpeedupVsDense  float64 `json:"speedup_vs_dense"`
	Mismatches      int     `json:"mismatches"` // top-K entries differing from the dense engine
	WallSec         float64 `json:"-"`
}

// PruneSweep runs the study: for each trace distribution it executes the
// same query sequence on a dense engine and on a pruned engine over the same
// clustered database, comparing every top-K entry and reporting the pruned
// engine's skip accounting and speedup.
func PruneSweep(cfg PruneConfig) ([]PruneRow, error) {
	if cfg.Features < 1 || cfg.Queries < 1 || cfg.K < 1 || cfg.StripeFeatures < 1 {
		return nil, fmt.Errorf("exp: prune config %+v invalid", cfg)
	}
	if cfg.Noise < 0 || cfg.Noise > 1 {
		return nil, fmt.Errorf("exp: prune noise %v outside [0,1]", cfg.Noise)
	}
	app, err := workload.ByName(cfg.App)
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(cfg.Seed)
	dims := app.SCN.FeatureElems()

	// Block-clustered database: block b's centroid is the semantic-ID-b query
	// vector, so trace queries land near their own cluster and the top-K floor
	// rises fast enough to discriminate between stripes.
	channels := core.DefaultOptions().Device.Geometry.Channels
	blockLen := channels * cfg.StripeFeatures
	blocks := (cfg.Features + blockLen - 1) / blockLen
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	vectors := make([][]float32, cfg.Features)
	for b := 0; b < blocks; b++ {
		centroid := workload.QueryVector(workload.Query{SemanticID: int64(b)}, dims, cfg.Seed+1)
		for i := b * blockLen; i < (b+1)*blockLen && i < cfg.Features; i++ {
			v := make([]float32, dims)
			for d := range v {
				v[d] = centroid[d] + float32(cfg.Noise)*(rng.Float32()*2-1)
			}
			vectors[i] = v
		}
	}

	run := func(prune bool, qfvs [][]float32) (replay, error) {
		opts := core.DefaultOptions()
		opts.Prune = prune
		opts.PruneStripeFeatures = cfg.StripeFeatures
		return replayStream(opts, vectors, app.SCN, nil, qfvs, cfg.K)
	}

	var out []PruneRow
	for _, dist := range []workload.Distribution{workload.Zipfian, workload.Uniform} {
		qfvs := queryVectors(workload.TraceConfig{
			Universe: int64(blocks), Length: cfg.Queries, Dist: dist,
			Alpha: cfg.Alpha, MaxJitter: cfg.Noise, Seed: cfg.Seed + 3,
		}, dims, cfg.Seed+1)
		dense, err := run(false, qfvs)
		if err != nil {
			return nil, err
		}
		pruned, err := run(true, qfvs)
		if err != nil {
			return nil, err
		}
		var ps core.PruneStats
		mismatched := 0
		for i, r := range pruned.results {
			ps.Add(r.Prune)
			mismatched += mismatches(dense.results[i].TopK, r.TopK)
		}
		denseSim, prunedSim := dense.clock.Seconds(), pruned.clock.Seconds()
		denseFeatures := float64(cfg.Features) * float64(cfg.Queries)
		out = append(out,
			PruneRow{
				Trace: dist.String(), Mode: "dense",
				Queries: cfg.Queries, Features: cfg.Features, StripeFeatures: cfg.StripeFeatures,
				SimSec: denseSim, FeaturesSec: denseFeatures / denseSim,
				SpeedupVsDense: 1, WallSec: dense.wallSec,
			},
			PruneRow{
				Trace: dist.String(), Mode: "pruned",
				Queries: cfg.Queries, Features: cfg.Features, StripeFeatures: cfg.StripeFeatures,
				StripesChecked: ps.StripesChecked, StripesSkipped: ps.StripesSkipped,
				FeaturesSkipped: ps.FeaturesSkipped,
				SkipRate:        float64(ps.FeaturesSkipped) / denseFeatures,
				SimSec:          prunedSim, FeaturesSec: denseFeatures / prunedSim,
				SpeedupVsDense: denseSim / prunedSim,
				Mismatches:     mismatched, WallSec: pruned.wallSec,
			})
	}
	return out, nil
}

// pruneTable tabulates the study.
func pruneTable(rows []PruneRow) report.Table {
	header := []string{"Trace", "Mode", "Queries", "Features", "SF", "Checked", "Skipped",
		"Feat skipped", "Skip rate", "Sim (s)", "Features/s", "vs dense", "Mismatch", "Wall (s)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Trace, r.Mode, fmt.Sprint(r.Queries), fmt.Sprint(r.Features),
			fmt.Sprint(r.StripeFeatures), fmt.Sprint(r.StripesChecked),
			fmt.Sprint(r.StripesSkipped), fmt.Sprint(r.FeaturesSkipped),
			F(r.SkipRate), F(r.SimSec), F(r.FeaturesSec),
			F(r.SpeedupVsDense) + "x", fmt.Sprint(r.Mismatches), F(r.WallSec),
		})
	}
	return report.Table{Name: "prune", Header: header, Rows: out}
}
