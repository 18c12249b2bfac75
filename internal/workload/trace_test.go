package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := TraceConfig{Universe: 100, Length: 50, Dist: Zipfian, Alpha: 0.7, MaxJitter: 0.05, Seed: 1}
	a := GenerateTrace(cfg)
	b := GenerateTrace(cfg)
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestTraceIDsSequential(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Universe: 10, Length: 20, Dist: Uniform, Seed: 2})
	for i, q := range tr.Queries {
		if q.ID != int64(i) {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		if q.SemanticID < 0 || q.SemanticID >= 10 {
			t.Fatalf("semantic ID %d out of universe", q.SemanticID)
		}
	}
}

func TestZipfianSkewExceedsUniform(t *testing.T) {
	// A Zipfian trace must concentrate more mass on its hottest query than
	// a uniform trace over the same universe.
	const universe, length = 1000, 20000
	u := GenerateTrace(TraceConfig{Universe: universe, Length: length, Dist: Uniform, Seed: 3})
	z := GenerateTrace(TraceConfig{Universe: universe, Length: length, Dist: Zipfian, Alpha: 0.7, Seed: 3})
	hot := func(tr *Trace) float64 {
		counts := map[int64]int{}
		max := 0
		for _, q := range tr.Queries {
			counts[q.SemanticID]++
			if counts[q.SemanticID] > max {
				max = counts[q.SemanticID]
			}
		}
		return float64(max) / float64(len(tr.Queries))
	}
	hu, hz := hot(u), hot(z)
	if hz < 3*hu {
		t.Errorf("zipfian hottest mass %.4f not clearly above uniform %.4f", hz, hu)
	}
	// Higher alpha concentrates more.
	z8 := GenerateTrace(TraceConfig{Universe: universe, Length: length, Dist: Zipfian, Alpha: 0.8, Seed: 3})
	if hot(z8) <= hz*0.9 {
		t.Errorf("alpha=0.8 hottest mass %.4f not above alpha=0.7 %.4f", hot(z8), hz)
	}
}

func TestZipfSamplerMatchesLaw(t *testing.T) {
	// For alpha = 0.7 over n = 10, empirical frequency of rank 1 vs rank 10
	// should approximate (10/1)^0.7 ≈ 5.01.
	tr := GenerateTrace(TraceConfig{Universe: 10, Length: 200000, Dist: Zipfian, Alpha: 0.7, Seed: 5})
	counts := map[int64]int{}
	for _, q := range tr.Queries {
		counts[q.SemanticID]++
	}
	// Ranks were permuted; recover by sorting counts.
	var sorted []int
	for _, c := range counts {
		sorted = append(sorted, c)
	}
	// simple selection of max and min
	max, min := sorted[0], sorted[0]
	for _, c := range sorted {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	ratio := float64(max) / float64(min)
	want := math.Pow(10, 0.7)
	if ratio < want*0.7 || ratio > want*1.4 {
		t.Errorf("max/min frequency ratio = %.2f, want ~%.2f", ratio, want)
	}
}

func TestJitterBounds(t *testing.T) {
	f := func(seed int64) bool {
		tr := GenerateTrace(TraceConfig{Universe: 50, Length: 100, Dist: Uniform, MaxJitter: 0.1, Seed: seed})
		for _, q := range tr.Queries {
			if q.Jitter < 0 || q.Jitter > 0.1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDistinctQueries(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Universe: 5, Length: 1000, Dist: Uniform, Seed: 1})
	if got := tr.DistinctQueries(); got != 5 {
		t.Errorf("distinct = %d, want 5", got)
	}
}

func TestQueryVectorSimilarity(t *testing.T) {
	// Same semantic ID with small jitter → high cosine similarity;
	// different semantic IDs → near zero.
	const dims = 512
	a := QueryVector(Query{ID: 1, SemanticID: 42, Jitter: 0.05}, dims, 9)
	b := QueryVector(Query{ID: 2, SemanticID: 42, Jitter: 0.05}, dims, 9)
	c := QueryVector(Query{ID: 3, SemanticID: 77, Jitter: 0.05}, dims, 9)
	cosine := func(x, y []float32) float64 {
		var xy, xx, yy float64
		for i := range x {
			xy += float64(x[i]) * float64(y[i])
			xx += float64(x[i]) * float64(x[i])
			yy += float64(y[i]) * float64(y[i])
		}
		return xy / math.Sqrt(xx*yy)
	}
	same, diff := cosine(a, b), cosine(a, c)
	if same < 0.95 {
		t.Errorf("same-intent cosine = %v, want > 0.95", same)
	}
	if math.Abs(float64(diff)) > 0.2 {
		t.Errorf("cross-intent cosine = %v, want ~0", diff)
	}
}

func TestQueryVectorZeroJitterIdentical(t *testing.T) {
	a := QueryVector(Query{ID: 1, SemanticID: 5}, 64, 3)
	b := QueryVector(Query{ID: 99, SemanticID: 5}, 64, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("zero-jitter occurrences of same intent differ")
		}
	}
}

func TestGenerateTracePanics(t *testing.T) {
	cases := []TraceConfig{
		{Universe: 0, Length: 1},
		{Universe: 10, Length: -1},
		{Universe: 10, Length: 1, MaxJitter: 2},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad config did not panic", i)
				}
			}()
			GenerateTrace(cfg)
		}()
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Zipfian.String() != "zipfian" {
		t.Error("distribution strings wrong")
	}
}
