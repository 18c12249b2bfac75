package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workload"
)

// Query-history study (DESIGN.md §15). The learned admission policy mines
// the persistent query history — frequency, recency, and observed per-group
// hit accuracy — to decide which queries deserve cache residency, instead of
// admitting everything and evicting LRU. QHistSweep replays the same
// Zipfian and uniform traces through an LRU engine and a learned-admission
// engine whose cache is far smaller than the hot set, and checks every
// miss-path answer against a cache-off oracle. It is the artifact CI
// validates (BENCH_qhist.json: learned hit-rate above LRU on the Zipfian
// trace, zero miss-path top-K mismatches, byte-deterministic output).

// QHistConfig sizes the query-history study.
type QHistConfig struct {
	App       string  // workload application
	Features  int     // materialized database size
	Queries   int     // trace length per distribution
	K         int     // top-K
	Entries   int     // cache capacity (much smaller than the hot set)
	Universe  int64   // distinct semantic queries in the trace
	Alpha     float64 // Zipfian skew
	Threshold float64 // cache hit threshold
	Seed      int64   // database + trace seed
}

// DefaultQHist returns a CI-scale configuration: a 64-intent universe
// pounding an 8-entry cache, so admission decisions — not capacity — decide
// the hit-rate.
func DefaultQHist() QHistConfig {
	return QHistConfig{App: "TextQA", Features: 256, Queries: 96, K: 4,
		Entries: 8, Universe: 64, Alpha: 1.1, Threshold: 0.2, Seed: 7}
}

// QHistRow is one (trace, policy) cell of the study. Wall-clock time is
// excluded from the JSON artifact so BENCH_qhist.json is byte-identical
// across runs of the same configuration.
type QHistRow struct {
	Trace            string  `json:"trace"`  // "zipfian" or "uniform"
	Policy           string  `json:"policy"` // "lru" or "learned"
	Queries          int     `json:"queries"`
	Entries          int     `json:"entries"`
	Universe         int64   `json:"universe"`
	Hits             uint64  `json:"hits"`
	Misses           uint64  `json:"misses"`
	HitRate          float64 `json:"hit_rate"`
	AdmissionRejects uint64  `json:"admission_rejects"`
	Evictions        uint64  `json:"evictions"`
	Records          uint64  `json:"hist_records"`
	Groups           int     `json:"hist_groups"`
	SimSec           float64 `json:"sim_sec"`
	MissMismatches   int     `json:"miss_mismatches"` // miss-path top-K entries differing from the cache-off oracle
	WallSec          float64 `json:"-"`
}

// QHistSweep runs the study: per distribution, a cache-off oracle engine
// establishes the exact per-query answers, then an LRU engine and a
// learned-admission engine (identical except Options.CacheAdmission) replay
// the same trace with history enabled.
func QHistSweep(cfg QHistConfig) ([]QHistRow, error) {
	if cfg.Features < 1 || cfg.Queries < 1 || cfg.K < 1 || cfg.Entries < 1 ||
		cfg.Universe < 1 {
		return nil, fmt.Errorf("exp: qhist config %+v invalid", cfg)
	}
	app, err := workload.ByName(cfg.App)
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(cfg.Seed)
	dims := app.SCN.FeatureElems()
	db := workload.NewFeatureDB(app, cfg.Features, cfg.Seed+2)
	// Trace query vectors are uniform on [-1,1], so an exact repeat's
	// self-dot concentrates near dims/3 while unrelated pairs concentrate
	// near 0 (std ~ sqrt(dims/3)); the 8/dims weight puts the sigmoid at
	// ~0.93 for repeats and needs a ~5-sigma coincidence for a false hit — so
	// cache hits deterministically track exact intent repeats.
	qcn, err := dotNet("qhist-qcn", dims, 8/float32(dims))
	if err != nil {
		return nil, err
	}
	cached := func(ds *core.DeepStore) error { return ds.SetQC(qcn, 1.0, cfg.Entries, cfg.Threshold) }

	var out []QHistRow
	for _, dist := range []workload.Distribution{workload.Zipfian, workload.Uniform} {
		qfvs := queryVectors(workload.TraceConfig{
			Universe: cfg.Universe, Length: cfg.Queries, Dist: dist,
			Alpha: cfg.Alpha, Seed: cfg.Seed + 3,
		}, dims, cfg.Seed+1)
		oracle, err := replayStream(core.DefaultOptions(), db.Vectors, app.SCN, nil, qfvs, cfg.K)
		if err != nil {
			return nil, err
		}
		for _, admission := range []core.CacheAdmission{core.AdmissionLRU, core.AdmissionLearned} {
			opts := core.DefaultOptions()
			opts.History = true
			opts.CacheAdmission = admission
			got, err := replayStream(opts, db.Vectors, app.SCN, cached, qfvs, cfg.K)
			if err != nil {
				return nil, err
			}
			var hits, misses uint64
			mismatched := 0
			for i, r := range got.results {
				if r.CacheHit {
					hits++
					continue
				}
				misses++
				// Miss-path answers must be bit-identical to the cache-off
				// oracle: the cache can only change WHICH queries scan, not
				// what a scan returns.
				mismatched += mismatches(oracle.results[i].TopK, r.TopK)
			}
			snap := got.ds.MetricsSnapshot()
			hs := got.ds.HistoryStats()
			out = append(out, QHistRow{
				Trace: dist.String(), Policy: admission.String(),
				Queries: cfg.Queries, Entries: cfg.Entries, Universe: cfg.Universe,
				Hits: hits, Misses: misses,
				HitRate:          float64(hits) / float64(cfg.Queries),
				AdmissionRejects: uint64(snap.Counters["qcache_admission_rejects"]),
				Evictions:        uint64(snap.Counters["qcache_evictions"]),
				Records:          hs.Records,
				Groups:           hs.Groups,
				SimSec:           got.clock.Seconds(),
				MissMismatches:   mismatched,
				WallSec:          got.wallSec,
			})
		}
	}
	return out, nil
}

// qhistTable tabulates the study.
func qhistTable(rows []QHistRow) report.Table {
	header := []string{"Trace", "Policy", "Queries", "Entries", "Universe", "Hits", "Misses",
		"Hit rate", "Rejects", "Evictions", "Records", "Groups", "Sim (s)", "Mismatch", "Wall (s)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Trace, r.Policy, fmt.Sprint(r.Queries), fmt.Sprint(r.Entries),
			fmt.Sprint(r.Universe), fmt.Sprint(r.Hits), fmt.Sprint(r.Misses),
			F(r.HitRate), fmt.Sprint(r.AdmissionRejects), fmt.Sprint(r.Evictions),
			fmt.Sprint(r.Records), fmt.Sprint(r.Groups),
			F(r.SimSec), fmt.Sprint(r.MissMismatches), F(r.WallSec),
		})
	}
	return report.Table{Name: "qhist", Header: header, Rows: out}
}
