package qcache

import (
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

// TestBatchedSweepMatchesScalar: with a batch scorer installed the sweep
// picks exactly the entry the scalar first-strictly-greater sweep picks —
// across batch sizes that divide the cache evenly, leave ragged tails, or
// exceed it, across worker counts (batched chunks inside sharded chunks),
// and across the tie/peak/zero landscapes of the parallel-sweep test.
func TestBatchedSweepMatchesScalar(t *testing.T) {
	const n = parallelSweepMin + 37
	scorers := map[string]Scorer[int]{
		"peak": func(a, b int) float64 {
			if b == 123 {
				return 0.99
			}
			return 0.2
		},
		"all-tied": func(a, b int) float64 { return 0.5 },
		"hashed": func(a, b int) float64 {
			return float64((b*2654435761)%97) / 100
		},
		"all-zero": func(a, b int) float64 { return 0 },
	}
	for name, score := range scorers {
		t.Run(name, func(t *testing.T) {
			ref := buildSweepCache(n, score)
			wantIdx, wantScore := ref.sweepRange(0, 0, n)
			for _, batch := range []int{1, 7, 64, n, n + 100} {
				c := buildSweepCache(n, score)
				c.SetBatchScorer(batchedFrom(score), batch)
				for _, workers := range []int{1, 2, 8} {
					gotIdx, gotScore := c.sweepWith(0, workers)
					if gotIdx != wantIdx || gotScore != wantScore {
						t.Errorf("batch=%d workers=%d: sweep = (%d, %v), scalar = (%d, %v)",
							batch, workers, gotIdx, gotScore, wantIdx, wantScore)
					}
				}
			}
		})
	}
}

// TestBatchedLookupHitAndRevert: end-to-end hits behave identically with the
// batch scorer installed, and SetBatchScorer(nil, 0) reverts to the scalar
// sweep.
func TestBatchedLookupHitAndRevert(t *testing.T) {
	const n = parallelSweepMin + 4
	c := buildSweepCache(n, intScorer)
	c.SetBatchScorer(batchedFrom(intScorer), 16)
	if _, hit := c.Lookup(0, 0.05); !hit {
		t.Fatal("exact match missed through batched sweep")
	}
	c.SetBatchScorer(nil, 0)
	if c.batchScore != nil {
		t.Fatal("nil batch scorer did not revert to scalar sweep")
	}
	if _, hit := c.Lookup(0, 0.05); !hit {
		t.Fatal("promoted entry missed after reverting to scalar sweep")
	}
	if s := c.Stats(); s.Hits != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// TestBatchedSweepAllocFree: steady-state batched sweeps reuse pooled
// scratch instead of allocating gather buffers per lookup.
func TestBatchedSweepAllocFree(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race build's sync.Pool drops puts, so the scratch is re-allocated")
	}
	const n = 100 // below parallelSweepMin: single-goroutine sweep
	score := func(a, b int) float64 { return 0.1 }
	c := buildSweepCache(n, score)
	c.SetBatchScorer(batchedFrom(score), 16)
	c.sweepWith(0, 1) // warm the scratch pool
	if got := testing.AllocsPerRun(10, func() { c.sweepWith(0, 1) }); got != 0 {
		t.Errorf("batched sweep allocates %v times per call", got)
	}
}
