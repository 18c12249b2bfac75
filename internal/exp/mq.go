package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Multi-query throughput study. The admission layer (core.Server) coalesces
// submitted queries into shared sweeps (core.QueryMulti): each batch pays
// one simulated flash read stream and one weight-streaming pass, so the
// device timeline advances once per batch instead of once per query.
// MultiQueryBench measures that amortization directly — simulated
// queries/second at increasing batch widths on the same engine
// configuration — and is the artifact CI validates (BENCH_mq.json).

// MQConfig sizes the multi-query study.
type MQConfig struct {
	App      string // workload application (TIR: the weight-streaming regime)
	Features int    // materialized database size
	Queries  int    // total queries per batch width (use a multiple of max(Qs))
	K        int    // top-K
	Seed     int64  // database + query seed
	Qs       []int  // batch widths to sweep
}

// DefaultMQ returns a CI-scale configuration (a few seconds total).
func DefaultMQ() MQConfig {
	return MQConfig{App: "TIR", Features: 1000, Queries: 64, K: 10, Seed: 7,
		Qs: []int{1, 4, 16, 64}}
}

// MQRow is one batch width's measured throughput. Wall-clock time is
// reported for interactive runs but excluded from the JSON artifact so
// BENCH_mq.json is byte-identical across runs of the same configuration.
type MQRow struct {
	Q           int     `json:"q"`
	Queries     int     `json:"queries"`
	Features    int     `json:"features"`
	Batches     int64   `json:"batches"`
	SimSec      float64 `json:"sim_sec"`
	QueriesSec  float64 `json:"queries_per_sec"`
	NsFeature   float64 `json:"ns_per_feature"`
	SpeedupVsQ1 float64 `json:"speedup_vs_q1"`
	WallSec     float64 `json:"-"`
}

// MultiQueryBench sweeps batch width: for each Q it builds a fresh engine,
// submits cfg.Queries distinct queries through a one-tenant Server with
// BatchSize Q (Close cuts every batch in submission order, so composition is
// deterministic), and reports simulated throughput. Every width scores the same query set and
// returns identical top-K answers; what changes is how many queries share
// each in-storage sweep.
func MultiQueryBench(cfg MQConfig) ([]MQRow, error) {
	if cfg.Features < 1 || cfg.Queries < 1 || cfg.K < 1 || len(cfg.Qs) == 0 {
		return nil, fmt.Errorf("exp: mq config %+v invalid", cfg)
	}
	app, err := workload.ByName(cfg.App)
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(cfg.Seed)
	db := workload.NewFeatureDB(app, cfg.Features, cfg.Seed+1)
	queries := workload.NewFeatureDB(app, cfg.Queries, cfg.Seed+2)

	var rows []MQRow
	for _, q := range cfg.Qs {
		if q < 1 {
			return nil, fmt.Errorf("exp: batch width %d invalid", q)
		}
		ds, model, dbID, err := newEngine(core.DefaultOptions(), db.Vectors, app.SCN)
		if err != nil {
			return nil, err
		}
		sched, err := core.NewServer(ds, core.ServerConfig{
			Tenants:   []core.TenantConfig{{Name: "mq", Weight: 1, QueueDepth: cfg.Queries}},
			BatchSize: q,
		})
		if err != nil {
			return nil, err
		}
		wallStart := time.Now()
		simStart := ds.Now()
		chans := make([]<-chan *core.QueryResult, cfg.Queries)
		for i := range chans {
			spec := core.QuerySpec{QFV: queries.Vectors[i], K: cfg.K, Model: model, DB: dbID}
			if chans[i], err = sched.Submit("mq", spec); err != nil {
				sched.Close()
				return nil, err
			}
		}
		sched.Close() // flushes every pending batch
		for i, ch := range chans {
			if res, okRes := <-ch; !okRes || len(res.TopK) == 0 {
				return nil, fmt.Errorf("exp: mq query %d at Q=%d returned no results", i, q)
			}
		}
		simSec := sim.Duration(ds.Now() - simStart).Seconds()
		rows = append(rows, MQRow{
			Q:          q,
			Queries:    cfg.Queries,
			Features:   cfg.Features,
			Batches:    ds.MetricsSnapshot().Counters["serve_batches"],
			SimSec:     simSec,
			QueriesSec: float64(cfg.Queries) / simSec,
			NsFeature:  simSec * 1e9 / (float64(cfg.Queries) * float64(cfg.Features)),
			WallSec:    time.Since(wallStart).Seconds(),
		})
	}
	base := rows[0].QueriesSec
	for i := range rows {
		rows[i].SpeedupVsQ1 = rows[i].QueriesSec / base
	}
	return rows, nil
}

// mqTable tabulates the study.
func mqTable(rows []MQRow) report.Table {
	header := []string{"Q", "Queries", "Features", "Batches", "Sim (s)", "Queries/s", "ns/feature", "vs Q=1", "Wall (s)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprint(r.Q), fmt.Sprint(r.Queries), fmt.Sprint(r.Features),
			fmt.Sprint(r.Batches), F(r.SimSec), F(r.QueriesSec),
			F(r.NsFeature), F(r.SpeedupVsQ1) + "x", F(r.WallSec),
		})
	}
	return report.Table{Name: "mq", Header: header, Rows: out}
}
