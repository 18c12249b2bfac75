package exp

import "testing"

// TestReorgStudyTradeoff: recall rises with the scanned-cluster budget,
// reaches 1.0 at a full scan, and small budgets deliver large speedups with
// high recall — the §7 feature-reorganization payoff.
func TestReorgStudyTradeoff(t *testing.T) {
	cfg := DefaultReorg()
	cfg.Features = 1500
	cfg.Queries = 30
	rows, err := ReorgStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("%d rows", len(rows))
	}
	prev := -1.0
	for _, r := range rows {
		if r.MeanRecall < prev-0.05 {
			t.Errorf("recall decreased with budget: %.2f after %.2f", r.MeanRecall, prev)
		}
		prev = r.MeanRecall
		if r.Speedup < 1 {
			t.Errorf("speedup %.2f < 1", r.Speedup)
		}
	}
	last := rows[len(rows)-1]
	if last.Fraction != 1 || last.MeanRecall < 0.999 {
		t.Errorf("full scan row = %+v", last)
	}
	// A quarter-or-less scan must retain >= 90% recall on clustered data.
	found := false
	for _, r := range rows {
		if r.Fraction <= 0.3 && r.MeanRecall >= 0.9 {
			found = true
		}
	}
	if !found {
		t.Errorf("no high-recall pruned point: %+v", rows)
	}
	checkResult(t, tables(reorgTable(rows)), nil)
}
