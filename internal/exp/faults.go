package exp

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

// Fault sweep. The remote protocol and the sharded cluster both degrade
// gracefully under injected faults (DESIGN.md "Fault model and degraded
// operation"); this experiment quantifies the cost of that resilience on a
// multi-SSD deployment. A fixed query trace replays against a sharded
// Engines cluster at increasing per-shard fault rates, and the simulated
// makespan distribution (p50/p99) shows how much latency the degraded
// answers give back: a failed shard cannot be the slowest shard, so heavy
// fault rates shrink the makespan while shrinking coverage.

// FaultsConfig sizes the sweep.
type FaultsConfig struct {
	Shards   int       // engines in the cluster
	Features int       // materialized database size
	Queries  int       // trace length per rate
	K        int       // top-K
	Seed     int64     // database, trace, and injector seed
	Rates    []float64 // per-shard fault rates to sweep
}

// DefaultFaults returns a laptop-scale configuration: a 4-SSD cluster at
// 0%, 1%, and 10% per-shard fault rates.
func DefaultFaults() FaultsConfig {
	return FaultsConfig{
		Shards:   4,
		Features: 2000,
		Queries:  48,
		K:        10,
		Seed:     7,
		Rates:    []float64{0, 0.01, 0.10},
	}
}

// FaultsRow is one fault rate's outcome.
type FaultsRow struct {
	Rate    float64
	Queries int
	// Degraded counts queries answered from a strict subset of the shards;
	// ShardFailures totals the individual shard faults behind them.
	Degraded      int
	ShardFailures int
	// Errors counts queries with no healthy shard at all (possible only at
	// extreme rates; such queries contribute no latency sample).
	Errors int
	// P50Ms/P99Ms are nearest-rank (obs.Quantile) simulated makespan
	// percentiles in milliseconds over the answered queries (0 when none was).
	P50Ms float64
	P99Ms float64
}

// FaultSweep replays one trace against a fresh sharded cluster per rate.
// Each rate reuses the injector seed, so a rate's failure schedule — and
// therefore every number in its row — is reproducible.
func FaultSweep(cfg FaultsConfig) ([]FaultsRow, error) {
	if cfg.Shards < 1 || cfg.Queries < 1 {
		return nil, fmt.Errorf("exp: fault sweep config %+v invalid", cfg)
	}
	app, err := workload.ByName("TextQA")
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(cfg.Seed)
	db := workload.NewFeatureDB(app, cfg.Features, cfg.Seed+1)
	qfvs := queryVectors(workload.TraceConfig{
		Universe: 64, Length: cfg.Queries, Dist: workload.Zipfian, Alpha: 0.7, Seed: cfg.Seed,
	}, app.SCN.FeatureElems(), cfg.Seed)

	var rows []FaultsRow
	for _, rate := range cfg.Rates {
		e, err := newCluster(cfg.Shards, db.Vectors, app.SCN)
		if err != nil {
			return nil, err
		}
		if err := e.SetTolerance(cluster.Tolerance{FaultRate: rate, FaultSeed: cfg.Seed}); err != nil {
			return nil, err
		}
		row := FaultsRow{Rate: rate, Queries: cfg.Queries}
		var lat []float64
		for _, q := range qfvs {
			ans, err := e.Query(q, cfg.K)
			if err != nil {
				row.Errors++
				continue
			}
			lat = append(lat, ans.Makespan.Seconds())
			if ans.Degraded {
				row.Degraded++
				row.ShardFailures += len(ans.FailedShards)
			}
		}
		if len(lat) > 0 { // a rate that failed every query leaves no sample
			sort.Float64s(lat)
			row.P50Ms, row.P99Ms = obs.Quantile(lat, 50)*1000, obs.Quantile(lat, 99)*1000
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// faultsTable tabulates the sweep.
func faultsTable(rows []FaultsRow) report.Table {
	header := []string{"Fault rate", "Queries", "Degraded", "Shard failures", "Errors", "p50 (ms)", "p99 (ms)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.2f", r.Rate), fmt.Sprint(r.Queries), fmt.Sprint(r.Degraded),
			fmt.Sprint(r.ShardFailures), fmt.Sprint(r.Errors), F(r.P50Ms), F(r.P99Ms),
		})
	}
	return report.Table{Name: "faults", Header: header, Rows: out}
}
