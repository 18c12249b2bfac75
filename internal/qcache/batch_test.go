package qcache

import (
	"fmt"
	"testing"

	"repro/internal/racetest"
)

// batchedFrom wraps a scalar scorer as a BatchScorer, so the batched sweep
// can be checked against the scalar sweep on identical arithmetic.
func batchedFrom(score Scorer[int]) BatchScorer[int] {
	return func(scores []float64, q int, batch []int) {
		for i, b := range batch {
			scores[i] = score(q, b)
		}
	}
}

// tableResident is a Resident over ints, as a caller brings one to
// NewResident: its own copy of every slot's query, scored by a scalar
// scorer — what a QCN's resident store does with feature vectors. puts
// counts Put calls.
type tableResident struct {
	qs    []int
	score Scorer[int]
	puts  int
}

func (r *tableResident) Put(slot int, q int) {
	for len(r.qs) <= slot {
		r.qs = append(r.qs, 0)
	}
	r.qs[slot] = q
	r.puts++
}

func (r *tableResident) Keys(keys []float64, q int) {
	for s := range keys {
		keys[s] = r.score(q, r.qs[s])
	}
}

func (r *tableResident) Score(key float64) float64 { return key }

// TestBatchedSweepMatchesScalar: with a batch scorer installed — at batch
// sizes that divide the cache, leave ragged tails or exceed it — and through
// a cache's own Resident, the sweep picks exactly the entry and score the
// scalar index-order reference picks, on churned caches and across the
// landscapes of TestSweepParallelMatchesSerial; and on adversarial keys
// (saturated ties, NaN, ±Inf, ±0, all zero, one entry) the sweep, which
// scores only the keys that can win, picks what scoring every entry picks.
func TestBatchedSweepMatchesScalar(t *testing.T) {
	t.Run("adversarial", adversarialSweeps)
	for _, name := range []string{"peak", "all-tied", "hashed", "all-zero"} {
		t.Run(name, func(t *testing.T) {
			for _, n := range sweepSizes {
				check := func(c *Cache[int], sw *switchable, how string) {
					for _, q := range []int{0, 3, 2 * n} {
						wantIdx, wantScore := refSweep(c, sw.s, q)
						if gotIdx, gotScore := c.sweep(q); gotIdx != wantIdx || gotScore != wantScore {
							t.Errorf("n=%d %s q=%d: sweep = (%d, %v), reference = (%d, %v)", n, how, q, gotIdx, gotScore, wantIdx, wantScore)
						}
					}
				}
				sw := &switchable{}
				c := churnedCache(t, n, sw, sweepModes[0])
				sw.s = landscapes(c.entries[n/2].Query)[name]
				for _, batch := range []int{1, 7, 64, n, n + 100} {
					c.SetBatchScorer(batchedFrom(sw.score), batch)
					check(c, sw, fmt.Sprintf("batch=%d", batch))
				}
				sw = &switchable{}
				c = churnedCache(t, n, sw, sweepModes[2])
				sw.s = landscapes(c.entries[n/2].Query)[name]
				check(c, sw, "resident")
			}
		})
	}
}

// TestBatchedLookupHitAndRevert: end-to-end hits behave identically through
// the batch scorer, through the scalar Scorer SetBatchScorer(nil, 0) reverts
// to, and through a cache's own Resident, which receives every insert at its
// slot, once; a cache with its own Resident refuses a batch scorer.
func TestBatchedLookupHitAndRevert(t *testing.T) {
	const n = 300
	sw := &switchable{}
	c := churnedCache(t, n, sw, sweepModes[0])
	c.SetBatchScorer(batchedFrom(sw.score), 16)
	hits := c.Stats().Hits
	tail := c.entries[n-1].Query
	if _, hit := c.Lookup(tail, 0.05); !hit {
		t.Fatal("exact match missed through batched sweep")
	}
	c.SetBatchScorer(nil, 0)
	if c.resident.(*table[int]).batch != nil {
		t.Fatal("a nil batch scorer did not revert to the scalar Scorer")
	}
	c.Insert(2*n+1, nil)
	for _, q := range []int{c.entries[n-1].Query, 2*n + 1} {
		if _, hit := c.Lookup(q, 0.05); !hit {
			t.Fatalf("query %d missed after reverting to scalar sweep", q)
		}
	}
	if s := c.Stats(); s.Hits-hits != 3 {
		t.Errorf("%d hits, want 3: stats %+v", s.Hits-hits, s)
	}

	r := &tableResident{score: intScorer}
	c = NewResident[int](n, 1, r)
	for q := 0; q < n; q++ {
		c.Insert(q, nil)
	}
	c.Insert(n, nil) // evicts 0 and reuses its slot
	if r.puts != n+1 || r.qs[c.entries[0].slot] != n {
		t.Fatalf("insert not put into its slot: %d puts, slot holds %d", r.puts, r.qs[c.entries[0].slot])
	}
	for _, q := range []int{c.entries[n-1].Query, n} {
		if _, hit := c.Lookup(q, 0.05); !hit {
			t.Fatalf("query %d missed through the resident", q)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SetBatchScorer on a cache with its own Resident did not panic")
		}
	}()
	c.SetBatchScorer(batchedFrom(intScorer), 16)
}

// TestBatchedSweepAllocFree: steady-state lookups through the batch adapter
// and through a Resident allocate nothing.
func TestBatchedSweepAllocFree(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, mode := range sweepModes {
		sw := &switchable{}
		c := churnedCache(t, 100, sw, mode)
		c.Lookup(0, 0.05) // size the score buffer
		if got := testing.AllocsPerRun(10, func() { c.Lookup(0, 0.05) }); got != 0 {
			t.Errorf("%s: lookup allocates %v times per call", mode.name, got)
		}
	}
}
