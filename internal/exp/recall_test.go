package exp

import "testing"

// TestQCRecallHighUnderLowNoise validates the §4.6 premise quantitatively:
// with small paraphrase noise, cache-served answers recover most of the true
// top-K, and relaxing the threshold increases hit rate without destroying
// recall.
func TestQCRecallHighUnderLowNoise(t *testing.T) {
	cfg := DefaultRecall()
	cfg.Features = 800
	cfg.Queries = 120
	rows, err := QCRecall(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	prevHit := -1.0
	anyHits := false
	for _, r := range rows {
		if r.HitRate < prevHit-0.02 {
			t.Errorf("hit rate decreased with threshold: %.2f -> %.2f", prevHit, r.HitRate)
		}
		prevHit = r.HitRate
		if r.Hits == 0 {
			continue
		}
		anyHits = true
		// The re-ranked cached top-K must recover the bulk of the truth.
		if r.MeanRecall < 0.6 {
			t.Errorf("threshold %d%%: mean recall %.2f < 0.6", r.ThresholdPct, r.MeanRecall)
		}
	}
	if !anyHits {
		t.Error("no threshold produced cache hits")
	}
	checkResult(t, tables(recallTable(rows)), nil)
}
