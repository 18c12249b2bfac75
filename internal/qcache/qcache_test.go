package qcache

import (
	"testing"
	"testing/quick"

	"repro/internal/topk"
)

// intScorer treats equal ints as identical queries and unequal as dissimilar.
func intScorer(a, b int) float64 {
	if a == b {
		return 1
	}
	return 0.1
}

func TestExactHit(t *testing.T) {
	c := New[int](4, 1.0, intScorer)
	res := []topk.Entry{{FeatureID: 9, Score: 0.8}}
	c.Insert(42, res)
	got, hit := c.Lookup(42, 0.05)
	if !hit {
		t.Fatal("exact query missed")
	}
	if len(got.Results) != 1 || got.Results[0].FeatureID != 9 {
		t.Errorf("results = %+v", got.Results)
	}
}

func TestMissOnDissimilar(t *testing.T) {
	c := New[int](4, 1.0, intScorer)
	c.Insert(42, nil)
	if _, hit := c.Lookup(7, 0.05); hit {
		t.Error("dissimilar query hit")
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 1 || s.Lookups != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestQCNAccuracyWeighting checks Algorithm 1's score = qcn_score × QCN_Acc:
// with accuracy 0.9 even a perfect similarity leaves complement 0.1, so a 5%
// threshold misses and a 12% threshold hits.
func TestQCNAccuracyWeighting(t *testing.T) {
	c := New[int](4, 0.9, intScorer)
	c.Insert(42, nil)
	if _, hit := c.Lookup(42, 0.05); hit {
		t.Error("low-confidence QCN hit under tight threshold")
	}
	if _, hit := c.Lookup(42, 0.12); !hit {
		t.Error("miss despite threshold covering the confidence gap")
	}
}

// TestRelaxedThresholdNeverReducesHits reproduces the Fig. 13 trend: a larger
// error threshold can only increase the hit rate.
func TestRelaxedThresholdNeverReducesHits(t *testing.T) {
	scorer := func(a, b int) float64 {
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		return 1 - float64(diff)/10
	}
	f := func(queries []int8) bool {
		hits := func(threshold float64) uint64 {
			c := New[int](8, 0.95, scorer)
			for _, q := range queries {
				if _, hit := c.Lookup(int(q), threshold); !hit {
					c.Insert(int(q), nil)
				}
			}
			return c.Stats().Hits
		}
		return hits(0.02) <= hits(0.10) && hits(0.10) <= hits(0.20)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](2, 1.0, intScorer)
	c.Insert(1, nil)
	c.Insert(2, nil)
	// Touch 1 so it is MRU, then insert 3: 2 must be evicted.
	if _, hit := c.Lookup(1, 0.1); !hit {
		t.Fatal("warmup lookup missed")
	}
	c.Insert(3, nil)
	if _, hit := c.Lookup(2, 0.1); hit {
		t.Error("LRU entry 2 still cached")
	}
	if _, hit := c.Lookup(1, 0.1); !hit {
		t.Error("MRU entry 1 evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New[int](3, 1.0, intScorer)
	for i := 0; i < 10; i++ {
		c.Insert(i, nil)
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want 3", c.Len())
	}
}

func TestComparisonsCount(t *testing.T) {
	c := New[int](8, 1.0, intScorer)
	for i := 0; i < 5; i++ {
		c.Insert(i, nil)
	}
	c.Lookup(99, 0.1)
	if got := c.Stats().Comparisons; got != 5 {
		t.Errorf("comparisons = %d, want 5 (one QCN per entry)", got)
	}
}

func TestClear(t *testing.T) {
	c := New[int](4, 1.0, intScorer)
	c.Insert(1, nil)
	c.Clear()
	if c.Len() != 0 {
		t.Error("clear did not empty cache")
	}
}

func TestMissRate(t *testing.T) {
	c := New[int](4, 1.0, intScorer)
	c.Insert(1, nil)
	c.Lookup(1, 0.1) // hit
	c.Lookup(2, 0.1) // miss
	c.Lookup(3, 0.1) // miss
	if s := c.Stats(); s.Lookups != 3 || s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 3 lookups, 2 misses, 1 hit", s)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { New[int](0, 1, intScorer) },
		func() { New[int](1, 0, intScorer) },
		func() { New[int](1, 1.5, intScorer) },
		func() { New[int](1, 1, nil) },
		func() { NewResident[int](1, 1, nil) },
		func() { NewResident[int](0, 1, &tableResident{score: intScorer}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestLookupThresholdPanics(t *testing.T) {
	c := New[int](1, 1, intScorer)
	defer func() {
		if recover() == nil {
			t.Error("bad threshold did not panic")
		}
	}()
	c.Lookup(1, 1.5)
}

// TestEntryBytes: an entry holds its query and its top-K (§4.6), and a hit
// returns all K results in rank order.
func TestEntryBytes(t *testing.T) {
	c := New[int](4, 1.0, intScorer)
	var res []topk.Entry
	for i := 0; i < 10; i++ {
		res = append(res, topk.Entry{FeatureID: int64(100 - i), Score: float32(10 - i)})
	}
	c.Insert(5, res)
	got, hit := c.Lookup(5, 0.05)
	if !hit || got.Query != 5 || len(got.Results) != 10 || got.Results[9] != res[9] {
		t.Errorf("hit %v: entry %+v, want query 5 and the 10 results inserted", hit, got)
	}
}

// Property: hits + misses == lookups, insertions bound evictions.
func TestStatsInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New[int](4, 0.9, intScorer)
		for _, op := range ops {
			q := int(op % 16)
			if op%2 == 0 {
				if _, hit := c.Lookup(q, 0.15); !hit {
					c.Insert(q, nil)
				}
			} else {
				c.Insert(q, nil)
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Lookups && s.Evictions <= s.Insertions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
