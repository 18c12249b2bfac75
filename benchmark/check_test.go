package main

import (
	"testing"

	deepstore "repro"
)

func resultOf(latency deepstore.SimDuration) *deepstore.QueryResult {
	return &deepstore.QueryResult{Latency: latency}
}

// sim_qps charges a shared batch its slowest query and sequential queries
// their sum.
func TestSimQPSBatchMakespan(t *testing.T) {
	us := deepstore.SimMicrosecond
	a := newSimAcc()
	a.fold(opOut{batch: true, results: []*deepstore.QueryResult{resultOf(100 * us), resultOf(300 * us), resultOf(200 * us)}}, 0)
	a.fold(opOut{batch: true, results: []*deepstore.QueryResult{resultOf(100 * us)}}, 0)
	// 2 ops over 300 us + 100 us of simulated time.
	if got := a.simQPS(); got < 4999.999 || got > 5000.001 {
		t.Errorf("batched sim_qps = %v, want 5000", got)
	}
	if a.queries != 4 || a.latencyPs != int64(700*us) {
		t.Errorf("%d queries, %d ps, want 4 and %d", a.queries, a.latencyPs, int64(700*us))
	}
	b := newSimAcc()
	b.fold(opOut{results: []*deepstore.QueryResult{resultOf(100 * us), resultOf(300 * us)}}, 0)
	if got := b.simQPS(); got < 2499.999 || got > 2500.001 {
		t.Errorf("sequential sim_qps = %v, want 2500", got)
	}
}

// The digest covers latency, stages, energy and top-K: changing any of them
// changes it, and the same results give the same digest.
func TestSimDigestSensitivity(t *testing.T) {
	mk := func(score float32, latency deepstore.SimDuration) uint64 {
		a := newSimAcc()
		r := resultOf(latency)
		r.TopK = []deepstore.Result{{FeatureID: 3, Score: score}}
		a.fold(opOut{results: []*deepstore.QueryResult{r}}, 0)
		return a.digest.Sum64()
	}
	base := mk(0.5, 100)
	if mk(0.5, 100) != base {
		t.Error("same results, different digest")
	}
	if mk(0.25, 100) == base || mk(0.5, 101) == base {
		t.Error("digest missed a changed score or latency")
	}
}

func TestInvariantsCatchBrokenResults(t *testing.T) {
	good := resultOf(30)
	good.Stages = append(good.Stages, struct {
		Name string
		Dur  deepstore.SimDuration
	}{"scan", 30})
	good.FeaturesScanned, good.Prune.FeaturesSkipped = 60, 40
	c := &checker{}
	c.invariants(opOut{results: []*deepstore.QueryResult{good}}, 100, true)
	if c.failed != 0 {
		t.Fatalf("sound result failed: %s", c.firstErr)
	}
	bad := *good
	bad.Latency = 31
	c.invariants(opOut{results: []*deepstore.QueryResult{&bad}}, 100, true)
	if c.failed != 1 {
		t.Error("stage sum != latency not caught")
	}
	short := *good
	short.FeaturesScanned = 59
	c.invariants(opOut{results: []*deepstore.QueryResult{&short}}, 100, true)
	if c.failed != 2 {
		t.Error("scanned + skipped != range not caught")
	}
}

func TestSameTopK(t *testing.T) {
	a := []deepstore.Result{{FeatureID: 1, Score: 2}, {FeatureID: 5, Score: 1}}
	b := []deepstore.Result{{FeatureID: 1, Score: 2, ObjectID: 9}, {FeatureID: 5, Score: 1}}
	if !sameTopK(a, b) {
		t.Error("object ids are not part of the comparison")
	}
	b[1].Score = 0.5
	if sameTopK(a, b) || sameTopK(a, a[:1]) {
		t.Error("differing score or length not caught")
	}
}
