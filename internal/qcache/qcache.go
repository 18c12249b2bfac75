// Package qcache implements DeepStore's similarity-based in-storage query
// cache (§4.6, Fig. 7, Algorithm 1). Unlike a conventional exact-match cache,
// a lookup compares the incoming query against every cached query with a
// query comparison network (QCN); the best match's results are reused when
// the confidence-weighted similarity clears a threshold, exploiting both the
// temporal locality and the semantic similarity of intelligent queries.
package qcache

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/topk"
)

// Scorer computes the QCN similarity of two queries in [0, 1]. Lookups over
// large caches shard the sweep across goroutines, so a Scorer must be safe
// for concurrent calls (stateless, or backed by per-call scratch state such
// as a sync.Pool of nn Scorers).
type Scorer[Q any] func(a, b Q) float64

// BatchScorer scores q against a batch of cached queries in one call,
// writing scores[i] ∈ [0, 1] for batch[i] — installed via SetBatchScorer so
// the sweep runs as batched GEMM instead of one QCN forward per entry. Each
// score must equal what the scalar Scorer returns for the same pair (the
// sweep's selection rule assumes they are interchangeable). Like Scorer, it
// must be safe for concurrent calls.
type BatchScorer[Q any] func(scores []float64, q Q, batch []Q)

// Entry is one cached query with its top-K results (the TopKFV/ObjectID
// fields of Fig. 7). Key is the installed Policy's fingerprint of Query,
// computed once when the entry is inserted (zero without a policy), so
// victim selection never has to touch the query vectors again.
type Entry[Q any] struct {
	Query   Q
	Results []topk.Entry
	Key     uint64
}

// Stats counts cache behaviour.
type Stats struct {
	Lookups    uint64
	Hits       uint64
	Misses     uint64
	Insertions uint64
	Evictions  uint64
	// Comparisons counts QCN executions (one per valid entry per lookup),
	// the quantity the channel-level accelerators execute (§4.6).
	Comparisons uint64
	// AdmissionRejects counts inserts a Policy declined while the cache was
	// full (the candidate never displaced a resident entry).
	AdmissionRejects uint64
}

// MissRate returns misses/lookups (0 when no lookups yet).
func (s Stats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

// Policy customizes admission and eviction when the cache is full. Both
// hooks run synchronously inside Insert under the caller's lock; they must
// not call back into the cache. A nil policy is plain LRU.
type Policy[Q any] interface {
	// Key fingerprints a query. Insert calls it exactly once per candidate
	// and stores the answer in the entry, so it must be a pure function of q.
	Key(q Q) uint64
	// Victim decides a full-cache insert in one pass over the resident
	// entries' stored keys: admit reports whether the candidate (identified
	// by key) deserves to displace a resident entry — false leaves the cache
	// untouched — and idx is the entry to displace, -1 (or any out-of-range
	// index) falling back to the LRU tail.
	Victim(key uint64, entries []Entry[Q]) (idx int, admit bool)
}

// Cache is the similarity-based query cache. Entries are kept in LRU order;
// hits promote, inserts evict the least recently used entry — unless a
// Policy overrides full-cache admission and victim selection.
type Cache[Q any] struct {
	capacity int
	// qcnAcc is the QCN's accuracy; Algorithm 1 weights every similarity
	// score by it before thresholding.
	qcnAcc float64
	score  Scorer[Q]
	// batchScore, when set, replaces per-entry score calls in the sweep;
	// batch/scratch size its per-call gather buffers.
	batchScore BatchScorer[Q]
	batch      int
	scratch    sync.Pool
	// entries[0] is most recently used.
	entries []Entry[Q]
	stats   Stats
	policy  Policy[Q]
	// shards[w] is shard w's best entry of the sweep in flight, shardWG what
	// waits for the spawned shards.
	shards  [maxSweepShards]shardBest
	shardWG sync.WaitGroup
}

// shardBest is one sweep shard's first-seen maximum (idx -1: none above zero).
type shardBest struct {
	idx   int
	score float64
}

// sweepScratch is one sweep shard's gather/score buffers, pooled so
// steady-state lookups allocate nothing.
type sweepScratch[Q any] struct {
	qs     []Q
	scores []float64
}

// New creates a cache of the given capacity. qcnAcc must be in (0, 1].
func New[Q any](capacity int, qcnAcc float64, score Scorer[Q]) *Cache[Q] {
	if capacity < 1 {
		panic(fmt.Sprintf("qcache: capacity %d < 1", capacity))
	}
	if qcnAcc <= 0 || qcnAcc > 1 {
		panic(fmt.Sprintf("qcache: QCN accuracy %v outside (0,1]", qcnAcc))
	}
	if score == nil {
		panic("qcache: nil scorer")
	}
	return &Cache[Q]{capacity: capacity, qcnAcc: qcnAcc, score: score}
}

// SetBatchScorer installs a batched sweep scorer: lookups gather up to
// batch cached queries per bs call instead of calling the scalar Scorer per
// entry. The selected entry is unchanged — batches are walked in index
// order and the per-batch maximum keeps the serial first-strictly-greater
// rule. Pass a nil bs to revert to the scalar sweep.
func (c *Cache[Q]) SetBatchScorer(bs BatchScorer[Q], batch int) {
	if bs == nil {
		c.batchScore = nil
		return
	}
	if batch < 1 {
		panic(fmt.Sprintf("qcache: batch %d < 1", batch))
	}
	c.batchScore = bs
	c.batch = batch
	c.scratch = sync.Pool{New: func() any {
		return &sweepScratch[Q]{qs: make([]Q, batch), scores: make([]float64, batch)}
	}}
}

// Len returns the number of cached entries.
func (c *Cache[Q]) Len() int { return len(c.entries) }

// Capacity returns the entry limit.
func (c *Cache[Q]) Capacity() int { return c.capacity }

// Stats returns a snapshot of the counters.
func (c *Cache[Q]) Stats() Stats { return c.stats }

// parallelSweepMin is the cache size at which Lookup shards the QCN sweep
// across goroutines. Below it, goroutine startup outweighs the comparisons.
const parallelSweepMin = 256

// maxSweepShards bounds the sharded sweep's fan-out whatever GOMAXPROCS is:
// at parallelSweepMin entries a shard of more would be under eight entries.
const maxSweepShards = 32

// Lookup runs Algorithm 1: score the query against every cached entry,
// take the entry with the maximum confidence-weighted score, and hit when
// the score's complement is within the threshold. On a hit the entry is
// promoted (LRU) and its results returned; the caller re-ranks them against
// the new query with the SCN (line 13 of Algorithm 1).
//
// For caches of parallelSweepMin entries or more the sweep is sharded
// GOMAXPROCS ways (at most maxSweepShards), the caller taking the first
// shard — the software analogue of the per-channel accelerators executing
// the QCN comparisons (§4.6). The selected entry is identical to the serial
// sweep's: shards keep their first-seen maximum, and the reduction breaks
// score ties toward the lower index, which is exactly the serial
// first-strictly-greater rule.
func (c *Cache[Q]) Lookup(q Q, threshold float64) (Entry[Q], bool) {
	if threshold < 0 || threshold > 1 {
		panic(fmt.Sprintf("qcache: threshold %v outside [0,1]", threshold))
	}
	c.stats.Lookups++
	maxIndex, maxScore := c.sweep(q)
	c.stats.Comparisons += uint64(len(c.entries))
	if maxIndex >= 0 && (1-maxScore) <= threshold {
		c.stats.Hits++
		e := c.entries[maxIndex]
		c.promote(maxIndex)
		return e, true
	}
	c.stats.Misses++
	return Entry[Q]{}, false
}

// sweep returns the index and confidence-weighted score of the best-matching
// entry (-1 when the cache is empty or no entry scores above zero).
func (c *Cache[Q]) sweep(q Q) (int, float64) {
	return c.sweepWith(q, runtime.GOMAXPROCS(0))
}

// sweepWith is sweep with an explicit worker count, so the sharded path is
// exercisable regardless of the host's core count. Shard 0 runs on the
// calling goroutine, so w workers cost w-1 goroutine hand-offs, and the
// shard results live in the cache (a Lookup is single-caller: it moves
// entries) — a local array the goroutines write to would be moved to the
// heap on every lookup.
func (c *Cache[Q]) sweepWith(q Q, workers int) (int, float64) {
	n := len(c.entries)
	if n < parallelSweepMin || workers < 2 {
		return c.sweepRange(q, 0, n)
	}
	workers = min(workers, n, maxSweepShards)
	chunk := (n + workers - 1) / workers
	for w := 1; w < workers; w++ {
		c.shardWG.Add(1)
		go c.sweepShard(q, w, w*chunk, min((w+1)*chunk, n))
	}
	c.shards[0].idx, c.shards[0].score = c.sweepRange(q, 0, chunk)
	c.shardWG.Wait()
	// Chunks are reduced in index order with a strictly-greater rule, so a
	// cross-chunk score tie keeps the earlier (lower-index) entry — the
	// same winner the serial first-strictly-greater sweep picks.
	maxIndex, maxScore := -1, 0.0
	for _, r := range c.shards[:workers] {
		if r.idx >= 0 && r.score > maxScore {
			maxScore = r.score
			maxIndex = r.idx
		}
	}
	return maxIndex, maxScore
}

// sweepShard is one spawned shard of sweepWith.
func (c *Cache[Q]) sweepShard(q Q, w, lo, hi int) {
	defer c.shardWG.Done()
	c.shards[w].idx, c.shards[w].score = c.sweepRange(q, lo, hi)
}

// sweepRange is the serial sweep over entries[lo:hi]: the first entry with a
// strictly greater weighted score wins. With a batch scorer installed the
// range is scored batch-at-a-time in index order, which preserves the same
// first-strictly-greater winner.
func (c *Cache[Q]) sweepRange(q Q, lo, hi int) (int, float64) {
	if c.batchScore != nil && hi > lo {
		return c.sweepRangeBatched(q, lo, hi)
	}
	maxIndex, maxScore := -1, 0.0
	for i := lo; i < hi; i++ {
		s := c.score(q, c.entries[i].Query) * c.qcnAcc
		if s > maxScore {
			maxScore = s
			maxIndex = i
		}
	}
	return maxIndex, maxScore
}

func (c *Cache[Q]) sweepRangeBatched(q Q, lo, hi int) (int, float64) {
	sc := c.scratch.Get().(*sweepScratch[Q])
	maxIndex, maxScore := -1, 0.0
	for i := lo; i < hi; {
		n := hi - i
		if n > c.batch {
			n = c.batch
		}
		for j := 0; j < n; j++ {
			sc.qs[j] = c.entries[i+j].Query
		}
		c.batchScore(sc.scores[:n], q, sc.qs[:n])
		for j := 0; j < n; j++ {
			if s := sc.scores[j] * c.qcnAcc; s > maxScore {
				maxScore = s
				maxIndex = i + j
			}
		}
		i += n
	}
	// Drop query references before pooling so the scratch does not pin
	// evicted entries.
	var zero Q
	for j := range sc.qs {
		sc.qs[j] = zero
	}
	c.scratch.Put(sc)
	return maxIndex, maxScore
}

func (c *Cache[Q]) promote(i int) {
	e := c.entries[i]
	copy(c.entries[1:i+1], c.entries[:i])
	c.entries[0] = e
}

// SetPolicy installs (or, with nil, removes) the admission/eviction policy,
// re-keying the resident entries so every stored Key is the new policy's.
// The policy only decides full-cache inserts, so an installed policy whose
// Victim returns (-1, true) is bit-identical to plain LRU.
func (c *Cache[Q]) SetPolicy(p Policy[Q]) {
	c.policy = p
	for i := range c.entries {
		c.entries[i].Key = 0
		if p != nil {
			c.entries[i].Key = p.Key(c.entries[i].Query)
		}
	}
}

// Insert caches a query and its freshly computed results as the most
// recently used entry. When full, the policy (if any) first decides whether
// the candidate is admitted at all and which resident entry it displaces;
// without a policy — or when the policy defers with -1 — the LRU entry is
// evicted (line 16). The victim's slot is overwritten by the shift that
// makes room at the front, so an evicted entry is never left reachable.
func (c *Cache[Q]) Insert(q Q, results []topk.Entry) {
	e := Entry[Q]{Query: q, Results: results}
	if c.policy != nil {
		e.Key = c.policy.Key(q)
	}
	if len(c.entries) < c.capacity {
		c.entries = append(c.entries, Entry[Q]{})
		copy(c.entries[1:], c.entries[:len(c.entries)-1])
		c.entries[0] = e
		c.stats.Insertions++
		return
	}
	victim := len(c.entries) - 1
	if c.policy != nil {
		v, admit := c.policy.Victim(e.Key, c.entries)
		if !admit {
			c.stats.AdmissionRejects++
			return
		}
		if v >= 0 && v < len(c.entries) {
			victim = v
		}
	}
	c.stats.Evictions++
	copy(c.entries[1:victim+1], c.entries[:victim])
	c.entries[0] = e
	c.stats.Insertions++
}

// Clear removes every entry, keeping statistics. The slots are zeroed before
// the slice is truncated so the backing array stops pinning the cleared
// query vectors and result lists.
func (c *Cache[Q]) Clear() {
	clear(c.entries)
	c.entries = c.entries[:0]
}

// EntryBytes estimates one entry's DRAM footprint (§4.6): the query feature
// vector plus K cached feature vectors and their 8-byte ObjectIDs.
func EntryBytes(featureBytes int64, k int) int64 {
	return featureBytes + int64(k)*(featureBytes+8)
}
