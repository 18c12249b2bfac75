package exp

import "testing"

// quantTestConfig shrinks the default sweep to test scale while keeping the
// database large enough to span several flash pages per channel at int8
// width — below that the page-granular event model charges int8 scans whole
// pages of compute for partial tables and the speedup disappears (the same
// sizing note as DefaultQuant).
func quantTestConfig() QuantConfig {
	cfg := DefaultQuant()
	cfg.Features = 8192
	cfg.Queries = 3
	return cfg
}

func TestQuantSweep(t *testing.T) {
	cfg := quantTestConfig()
	rows, err := QuantSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byMode := map[string]QuantRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
		if r.SimSec <= 0 || r.FeaturesSec <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Mode, r)
		}
	}
	fp32, ok1 := byMode["fp32"]
	approx, ok2 := byMode["int8"]
	exact, ok3 := byMode["int8-exact"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing modes in %v", rows)
	}
	if fp32.RecallAtK != 1 || fp32.Mismatches != 0 || fp32.SpeedupVsFP32 != 1 {
		t.Errorf("fp32 reference row not self-consistent: %+v", fp32)
	}
	// The int8 table is a quarter the flash bytes: simulated corpus
	// throughput must beat fp32 at this scale.
	if approx.FeaturesSec <= fp32.FeaturesSec {
		t.Errorf("int8 features/s %.0f not above fp32 %.0f", approx.FeaturesSec, fp32.FeaturesSec)
	}
	// Approximate mode tolerates quantization error but must stay useful.
	if approx.RecallAtK < 0.95 {
		t.Errorf("int8 recall@K %.3f < 0.95", approx.RecallAtK)
	}
	// Two-pass mode is exact: every entry matches the fp32 engine.
	if exact.Mismatches != 0 || exact.RecallAtK != 1 {
		t.Errorf("int8-exact not exact: %+v", exact)
	}
	if exact.Margin != cfg.Margin {
		t.Errorf("int8-exact margin %d, want %d", exact.Margin, cfg.Margin)
	}

	res, err := withRows(quantTable(rows), rows)
	checkResult(t, res, err)
	if got := len(res.Tables[0].Rows); got != len(rows) {
		t.Fatalf("quant table: %d rows, want %d", got, len(rows))
	}
}

func TestQuantSweepRejectsInvalidConfig(t *testing.T) {
	cfg := quantTestConfig()
	cfg.Margin = 0
	if _, err := QuantSweep(cfg); err == nil {
		t.Error("QuantSweep accepted margin 0")
	}
	cfg = quantTestConfig()
	cfg.Features = 0
	if _, err := QuantSweep(cfg); err == nil {
		t.Error("QuantSweep accepted zero features")
	}
}

func TestQuantMarginRecall(t *testing.T) {
	cfg := quantTestConfig()
	cfg.Features = 4096 // recall trend needs less flash scale than throughput
	rows, err := QuantMarginRecall(cfg, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i, r := range rows {
		if r.RecallAtK < 0 || r.RecallAtK > 1 {
			t.Errorf("margin %d: recall %v outside [0,1]", r.Margin, r.RecallAtK)
		}
		// Wider candidate sets can only help: recall is non-decreasing in
		// the margin on a fixed stream.
		if i > 0 && r.RecallAtK < rows[i-1].RecallAtK {
			t.Errorf("recall dropped from %.3f (margin %d) to %.3f (margin %d)",
				rows[i-1].RecallAtK, rows[i-1].Margin, r.RecallAtK, r.Margin)
		}
	}
	// By margin 4 the exact top-K survives the int8 first pass on this
	// landscape (the acceptance setting of the sweep and of CI).
	last := rows[len(rows)-1]
	if last.Mismatches != 0 || last.RecallAtK != 1 {
		t.Errorf("margin %d not exact: %+v", last.Margin, last)
	}

	tb := quantMarginTable(rows)
	checkResult(t, tables(tb), nil)
	if len(tb.Rows) != len(rows) {
		t.Fatalf("margin table: %d rows, want %d", len(tb.Rows), len(rows))
	}
}
