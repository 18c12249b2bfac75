package exp

import "testing"

// TestPruneSweep runs the CI-scale configuration and checks the properties
// the BENCH_prune.json artifact validation asserts: the pruned engine skips
// a nonzero share of the corpus on both traces, never diverges from the
// dense top-K, and covers the corpus at least as fast as the dense engine.
func TestPruneSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("PruneSweep scans the corpus four times")
	}
	cfg := DefaultPrune()
	rows, err := PruneSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (dense+pruned × zipfian+uniform)", len(rows))
	}
	byKey := map[string]PruneRow{}
	for _, r := range rows {
		byKey[r.Trace+"/"+r.Mode] = r
	}
	for _, trace := range []string{"zipfian", "uniform"} {
		dense, ok := byKey[trace+"/dense"]
		if !ok {
			t.Fatalf("missing %s dense row", trace)
		}
		pruned, ok := byKey[trace+"/pruned"]
		if !ok {
			t.Fatalf("missing %s pruned row", trace)
		}
		if dense.StripesChecked != 0 || dense.FeaturesSkipped != 0 || dense.SkipRate != 0 {
			t.Errorf("%s: dense row carries prune accounting: %+v", trace, dense)
		}
		if pruned.Mismatches != 0 {
			t.Errorf("%s: %d top-K mismatches vs dense", trace, pruned.Mismatches)
		}
		if pruned.SkipRate <= 0 {
			t.Errorf("%s: skip rate %v not positive", trace, pruned.SkipRate)
		}
		if pruned.StripesSkipped > pruned.StripesChecked {
			t.Errorf("%s: skipped %d of %d checked stripes", trace, pruned.StripesSkipped, pruned.StripesChecked)
		}
		if pruned.FeaturesSec < dense.FeaturesSec {
			t.Errorf("%s: pruned %v features/s below dense %v", trace, pruned.FeaturesSec, dense.FeaturesSec)
		}
		if pruned.SpeedupVsDense < 1 {
			t.Errorf("%s: speedup %v below 1", trace, pruned.SpeedupVsDense)
		}
		wantSkipped := int64(float64(cfg.Features) * float64(cfg.Queries) * pruned.SkipRate)
		if diff := pruned.FeaturesSkipped - wantSkipped; diff < -1 || diff > 1 {
			t.Errorf("%s: skip rate %v inconsistent with %d features skipped", trace, pruned.SkipRate, pruned.FeaturesSkipped)
		}
	}
	// Locality helps: the Zipfian trace should skip at least as much as the
	// uniform one on this clustered corpus (repeated hot intents raise the
	// floor against the same stripes).
	if z, u := byKey["zipfian/pruned"].SkipRate, byKey["uniform/pruned"].SkipRate; z < u {
		t.Logf("note: zipfian skip rate %v below uniform %v", z, u)
	}
	res, err := withRows(pruneTable(rows), rows)
	checkResult(t, res, err)
}
