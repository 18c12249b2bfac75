package qcache

import "testing"

// landscapes are the scoring landscapes every sweep test runs over: one
// sharp peak on the resident query peak, every entry tied (the entry first
// in LRU order must win), a hashed landscape with repeated values that
// depends on the query too, and nothing above zero (no candidate at all).
func landscapes(peak int) map[string]Scorer[int] {
	return map[string]Scorer[int]{
		"peak": func(a, b int) float64 {
			if b == peak {
				return 0.99
			}
			return 0.2
		},
		"all-tied": func(a, b int) float64 { return 0.5 },
		"hashed": func(a, b int) float64 {
			return float64(((a+1)*b*2654435761)%97) / 100
		},
		"all-zero": func(a, b int) float64 { return 0 },
	}
}

// refSweep is Algorithm 1's sweep as the plain loop it specifies: the
// entries in LRU index order, each scored by the scalar scorer, the first
// strictly greater weighted score winning.
func refSweep(c *Cache[int], score Scorer[int], q int) (int, float64) {
	maxIndex, maxScore := -1, 0.0
	for i, e := range c.entries {
		if s := score(q, e.Query) * c.qcnAcc; s > maxScore {
			maxIndex, maxScore = i, s
		}
	}
	return maxIndex, maxScore
}

// churnPolicy evicts from the middle of the LRU order and rejects every
// fifth candidate, so full-cache inserts reuse slots out of LRU order and
// rejects leave gaps in the insertion sequence.
type churnPolicy struct{}

func (churnPolicy) Key(q int) uint64 { return uint64(q) }

func (churnPolicy) Victim(key uint64, entries []Entry[int]) (int, bool) {
	return int(key % uint64(len(entries))), key%5 != 0
}

// switchable is a scorer the test can swap after the cache is built: the
// churn runs on exact matches (intScorer), the sweep under test on a
// landscape.
type switchable struct{ s Scorer[int] }

func (w *switchable) score(a, b int) float64 { return w.s(a, b) }

// churnedCache returns a full cache of n entries, built by mode over sw,
// whose slot order is not its LRU order: 2n+5 inserts under churnPolicy
// (mid-cache victims and admission rejects past capacity), then exact-match
// lookups that promote every third entry from the LRU tail forwards. It
// fails the test unless the slots ended up out of the order plain LRU
// inserts leave them in.
func churnedCache(t *testing.T, n int, sw *switchable, mode sweepMode) *Cache[int] {
	t.Helper()
	sw.s = intScorer
	c := mode.build(n, sw.score)
	c.SetPolicy(churnPolicy{})
	for q := 0; q < 2*n+5; q++ {
		c.Insert(q, nil)
	}
	for i := n - 1; i >= 0; i -= 3 {
		if _, hit := c.Lookup(c.entries[i].Query, 0.05); !hit {
			t.Fatalf("n=%d: resident query %d missed", n, c.entries[i].Query)
		}
	}
	if c.Len() != n || c.Stats().AdmissionRejects == 0 {
		t.Fatalf("n=%d: churn left %d entries, stats %+v", n, c.Len(), c.Stats())
	}
	if n > 2 {
		plain := true
		for i, e := range c.entries {
			plain = plain && e.slot == n-1-i
		}
		if plain {
			t.Fatalf("n=%d: slots still in plain insertion order", n)
		}
	}
	return c
}

// sweepSizes are the cache sizes the sweep tests churn: around the 64-slot
// groups a Resident scores at once, and larger than the 256 entries from
// which the sweep used to fan out across goroutines.
var sweepSizes = []int{1, 2, 63, 64, 65, 300}

// TestSweepParallelMatchesSerial: the one-pass sweep — every slot scored,
// then the entries walked in LRU order — picks exactly the entry and score
// the scalar index-order reference picks, through every way a cache scores,
// on caches whose slots were scrambled by promotions, mid-cache policy
// victims and admission rejects, across the peak, all-tied, hashed and
// all-zero landscapes.
func TestSweepParallelMatchesSerial(t *testing.T) {
	for _, name := range []string{"peak", "all-tied", "hashed", "all-zero"} {
		t.Run(name, func(t *testing.T) {
			for _, mode := range sweepModes {
				for _, n := range sweepSizes {
					sw := &switchable{}
					c := churnedCache(t, n, sw, mode)
					sw.s = landscapes(c.entries[n/2].Query)[name]
					for _, q := range []int{0, 3, 2 * n} {
						wantIdx, wantScore := refSweep(c, sw.s, q)
						if gotIdx, gotScore := c.sweep(q); gotIdx != wantIdx || gotScore != wantScore {
							t.Errorf("%s n=%d q=%d: sweep = (%d, %v), reference = (%d, %v)", mode.name, n, q, gotIdx, gotScore, wantIdx, wantScore)
						}
					}
				}
			}
		})
	}
}

// TestLookupCountsComparisons: every lookup charges one QCN execution per
// cached entry, whichever scorer runs the sweep.
func TestLookupCountsComparisons(t *testing.T) {
	for _, mode := range sweepModes {
		const n = 300
		sw := &switchable{}
		c := churnedCache(t, n, sw, mode)
		sw.s = func(a, b int) float64 { return 0.1 }
		before := c.Stats().Comparisons
		for i := 1; i <= 3; i++ {
			c.Lookup(0, 0.05)
			if got, want := c.Stats().Comparisons-before, uint64(i*n); got != want {
				t.Fatalf("%s: after %d lookups: comparisons = %d, want %d", mode.name, i, got, want)
			}
		}
	}
}

// TestLookupLargeCacheHit: an exact match at the LRU tail of a large,
// churned cache is found and promoted, and an immediate re-lookup finds it
// at the front — through every scorer.
func TestLookupLargeCacheHit(t *testing.T) {
	for _, mode := range sweepModes {
		sw := &switchable{}
		c := churnedCache(t, 300, sw, mode)
		tail := c.entries[len(c.entries)-1].Query
		for i := 0; i < 2; i++ {
			e, hit := c.Lookup(tail, 0.05)
			if !hit || e.Query != tail || c.entries[0].Query != tail {
				t.Fatalf("%s: lookup %d of tail query %d: hit %v, got %d, front %d", mode.name, i, tail, hit, e.Query, c.entries[0].Query)
			}
		}
	}
}

// A sweepMode builds an empty cache of n entries that scores by score in
// one of the ways a cache can.
type sweepMode struct {
	name  string
	build func(n int, score Scorer[int]) *Cache[int]
}

// sweepModes are the scalar Scorer, the batch adapter at a batch that
// leaves a ragged tail, and a Resident of the caller's own.
var sweepModes = []sweepMode{
	{"scalar", func(n int, score Scorer[int]) *Cache[int] { return New[int](n, 1, score) }},
	{"batched", func(n int, score Scorer[int]) *Cache[int] {
		c := New[int](n, 1, score)
		c.SetBatchScorer(batchedFrom(score), 7)
		return c
	}},
	{"resident", func(n int, score Scorer[int]) *Cache[int] {
		return NewResident[int](n, 1, &tableResident{score: score})
	}},
}
