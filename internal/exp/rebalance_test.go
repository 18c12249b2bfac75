package exp

import (
	"encoding/json"
	"testing"
)

// rebalanceTestConfig shrinks the default study for test runtime while
// keeping its structure: a 2-shard cluster grown to 3 by a multi-chunk
// migration under load.
func rebalanceTestConfig() RebalanceConfig {
	cfg := DefaultRebalance()
	cfg.Features = 240
	cfg.Batches = 4
	cfg.BatchQ = 4
	cfg.StripeFeatures = 10
	cfg.WindowStripes = 3
	return cfg
}

// TestRebalanceBenchInvariants checks the study's acceptance criteria on
// the shrunk configuration: three phases, zero oracle mismatches in every
// phase, a shard actually added, the planned window fully migrated in
// multiple device-charged chunks, and generations strictly advancing.
func TestRebalanceBenchInvariants(t *testing.T) {
	cfg := rebalanceTestConfig()
	rows, err := RebalanceBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 phases", len(rows))
	}
	for i, phase := range []string{"before", "during", "after"} {
		if rows[i].Phase != phase {
			t.Fatalf("row %d phase %q, want %q", i, rows[i].Phase, phase)
		}
	}
	before, during, after := rows[0], rows[1], rows[2]
	for _, r := range rows {
		if r.Mismatches != 0 {
			t.Errorf("phase %s: %d oracle mismatches, want 0", r.Phase, r.Mismatches)
		}
		if r.Queries != cfg.Batches*cfg.BatchQ {
			t.Errorf("phase %s: %d queries, want %d", r.Phase, r.Queries, cfg.Batches*cfg.BatchQ)
		}
		if r.P50Ms <= 0 || r.P99Ms < r.P50Ms {
			t.Errorf("phase %s: implausible quantiles p50=%v p99=%v", r.Phase, r.P50Ms, r.P99Ms)
		}
	}
	if before.Shards != cfg.Shards {
		t.Errorf("before: %d shards, want %d", before.Shards, cfg.Shards)
	}
	if during.Shards != cfg.Shards+1 || after.Shards != cfg.Shards+1 {
		t.Errorf("during/after shards %d/%d, want %d", during.Shards, after.Shards, cfg.Shards+1)
	}
	wantMoved := cfg.StripeFeatures * int64(cfg.WindowStripes)
	if during.MovedFeatures != wantMoved {
		t.Errorf("moved %d features, want %d", during.MovedFeatures, wantMoved)
	}
	if during.Chunks != cfg.WindowStripes {
		t.Errorf("%d chunks, want %d (one per stripe)", during.Chunks, cfg.WindowStripes)
	}
	if during.SrcReadMs <= 0 || during.DstWriteMs <= 0 {
		t.Errorf("migration device time src=%v dst=%v, want both > 0", during.SrcReadMs, during.DstWriteMs)
	}
	if during.Gen <= before.Gen {
		t.Errorf("during gen %d not past before gen %d", during.Gen, before.Gen)
	}
	if after.Gen != during.Gen {
		t.Errorf("after gen %d, want %d (no admin ops after the move)", after.Gen, during.Gen)
	}
	if before.P99VsQuiesced != 1 {
		t.Errorf("before p99 ratio %v, want 1", before.P99VsQuiesced)
	}
	if during.P99VsQuiesced <= 0 || after.P99VsQuiesced <= 0 {
		t.Errorf("p99 ratios during=%v after=%v, want > 0", during.P99VsQuiesced, after.P99VsQuiesced)
	}
	res, err := withRows(rebalanceTable(rows), rows)
	checkResult(t, res, err)
}

// TestRebalanceBenchDeterministic: the JSON artifact is byte-identical
// across runs (wall-clock is excluded from serialization).
func TestRebalanceBenchDeterministic(t *testing.T) {
	cfg := rebalanceTestConfig()
	a, err := RebalanceBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RebalanceBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("rebalance artifacts diverged:\n%s\n%s", ja, jb)
	}
}

// TestRebalanceBenchRejectsBadConfig: degenerate configurations error out.
func TestRebalanceBenchRejectsBadConfig(t *testing.T) {
	muts := []func(*RebalanceConfig){
		func(c *RebalanceConfig) { c.Features = 0 },
		func(c *RebalanceConfig) { c.K = 0 },
		func(c *RebalanceConfig) { c.Shards = 0 },
		func(c *RebalanceConfig) { c.Batches = 0 },
		func(c *RebalanceConfig) { c.BatchQ = 0 },
		func(c *RebalanceConfig) { c.Universe = 0 },
		func(c *RebalanceConfig) { c.StripeFeatures = 0 },
		func(c *RebalanceConfig) { c.WindowStripes = 0 },
		func(c *RebalanceConfig) { c.App = "no-such-app" },
	}
	for i, mut := range muts {
		cfg := rebalanceTestConfig()
		mut(&cfg)
		if _, err := RebalanceBench(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}
