package exp

import (
	"testing"

	"repro/internal/obs"
)

// TestFaultSweep: the zero rate stays clean, rising rates degrade queries,
// and the sweep is deterministic under its fixed seed.
func TestFaultSweep(t *testing.T) {
	cfg := FaultsConfig{Shards: 4, Features: 400, Queries: 24, K: 5, Seed: 7,
		Rates: []float64{0, 0.10}}
	rows, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows for %d rates", len(rows), len(cfg.Rates))
	}
	clean, faulty := rows[0], rows[1]
	if clean.Degraded != 0 || clean.ShardFailures != 0 || clean.Errors != 0 {
		t.Errorf("zero rate produced faults: %+v", clean)
	}
	if faulty.Degraded == 0 {
		t.Errorf("10%% rate degraded no queries over %d calls: %+v", cfg.Queries, faulty)
	}
	if faulty.ShardFailures < faulty.Degraded {
		t.Errorf("fewer shard failures (%d) than degraded queries (%d)", faulty.ShardFailures, faulty.Degraded)
	}
	for _, r := range rows {
		if r.P50Ms <= 0 || r.P99Ms < r.P50Ms {
			t.Errorf("rate %v: latency percentiles inconsistent: %+v", r.Rate, r)
		}
	}

	again, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Errorf("row %d not deterministic: %+v vs %+v", i, rows[i], again[i])
		}
	}

	res, err := withRows(faultsTable(rows), rows)
	checkResult(t, res, err)
	if tb := res.Tables[0]; len(tb.Header) != 7 || len(tb.Rows) != len(rows) {
		t.Errorf("table shape: %d header cols, %d rows", len(tb.Header), len(tb.Rows))
	}
}

func TestFaultSweepValidation(t *testing.T) {
	if _, err := FaultSweep(FaultsConfig{Shards: 0, Queries: 1}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := FaultSweep(FaultsConfig{Shards: 1, Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
}

// TestPercentileMs: the sweep's p50/p99 are obs.Quantile's nearest rank in
// milliseconds, and a rate that answers nothing reports zeros (not NaN,
// which the JSON artifact could not encode).
func TestPercentileMs(t *testing.T) {
	// Nearest-rank: p50 of 4 samples is rank ⌈0.5·4⌉ = 2 — the 2nd order
	// statistic, not the 3rd.
	sorted := []float64{0.001, 0.002, 0.003, 0.004}
	for _, c := range []struct{ p, want float64 }{{50, 2}, {99, 4}, {100, 4}} {
		if got := obs.Quantile(sorted, c.p) * 1000; got != c.want {
			t.Errorf("p%v = %v ms, want %v", c.p, got, c.want)
		}
	}
	rows, err := FaultSweep(FaultsConfig{Shards: 2, Features: 64, Queries: 3, K: 2, Seed: 7, Rates: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if r := rows[0]; r.Errors != r.Queries || r.P50Ms != 0 || r.P99Ms != 0 {
		t.Errorf("all-failing rate: %+v, want every query an error and zero percentiles", r)
	}
}
