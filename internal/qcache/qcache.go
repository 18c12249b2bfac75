// Package qcache implements DeepStore's similarity-based in-storage query
// cache (§4.6, Fig. 7, Algorithm 1). Unlike a conventional exact-match cache,
// a lookup compares the incoming query against every cached query with a
// query comparison network (QCN); the best match's results are reused when
// the confidence-weighted similarity clears a threshold, exploiting both the
// temporal locality and the semantic similarity of intelligent queries.
package qcache

import (
	"fmt"
	"slices"

	"repro/internal/topk"
)

// Scorer computes the QCN similarity of two queries in [0, 1].
type Scorer[Q any] func(a, b Q) float64

// BatchScorer scores q against a batch of cached queries in one call,
// writing scores[i] ∈ [0, 1] for batch[i] — installed via SetBatchScorer so
// the sweep runs as batched GEMM instead of one QCN forward per entry. Each
// score must equal what the scalar Scorer returns for the same pair (the
// sweep's selection rule assumes they are interchangeable).
type BatchScorer[Q any] func(scores []float64, q Q, batch []Q)

// Resident is how a cache scores: it keeps its own copy of every cached
// query, by slot, in whatever form it scores fastest — for the engine, the
// QCN's operand layout in SSD DRAM — and compares a query against all of
// them in one pass. A comparison yields a key, and Score maps a key to the
// similarity: for the engine the key is the QCN's logit and Score its
// activation, so a lookup activates only the keys that can win. NewResident
// takes one; New builds one over a Scorer.
type Resident[Q any] interface {
	// Put makes q the query of slot, replacing what the slot held.
	Put(slot int, q Q)
	// Keys writes keys[s], the key of q against slot s's query, for every
	// slot s in [0, len(keys)); a NaN key leaves slot s out of the lookup.
	Keys(keys []float64, q Q)
	// Score returns the similarity ∈ [0, 1] of a key. It must be
	// non-decreasing — no key scores above a larger one — so a key no
	// greater than one already scored cannot win and is never scored; a NaN
	// key is never scored and never wins.
	Score(key float64) float64
}

// Entry is one cached query with its top-K results (the TopKFV/ObjectID
// fields of Fig. 7). Key is the installed Policy's fingerprint of Query,
// computed once when the entry is inserted (zero without a policy), so
// victim selection never has to touch the query vectors again.
type Entry[Q any] struct {
	Query   Q
	Results []topk.Entry
	Key     uint64
	// slot is where the entry's query is scored: fixed from insertion to
	// eviction, whatever LRU index the entry moves to.
	slot int
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
	// Activations counts Resident.Score calls: host work only, one per key
	// that beat every key before it in LRU order. The simulated QCN still
	// runs every comparison.
	Activations uint64
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
//
// Every entry also owns a slot, the place its query is scored: an insert
// takes the next free slot, or the slot of the entry it evicts, and keeps it
// however the LRU order moves, so the slots in use are always [0, Len()). A
// lookup keys every slot in one pass and then walks the entries in LRU
// order. A Cache is not safe for concurrent use.
type Cache[Q any] struct {
	capacity int
	// qcnAcc is the QCN's accuracy; Algorithm 1 weights every similarity
	// score by it before thresholding.
	qcnAcc float64
	// resident keys every slot; keys[s] receives slot s's key.
	resident Resident[Q]
	keys     []float64
	// entries[0] is most recently used.
	entries []Entry[Q]
	stats   Stats
	policy  Policy[Q]
}

// New creates a cache of the given capacity that scores with score, one
// pair at a time until SetBatchScorer installs a batch scorer. qcnAcc must
// be in (0, 1].
func New[Q any](capacity int, qcnAcc float64, score Scorer[Q]) *Cache[Q] {
	if score == nil {
		panic("qcache: nil scorer")
	}
	return NewResident[Q](capacity, qcnAcc, &table[Q]{score: score})
}

// NewResident creates a cache of the given capacity that scores through r
// alone, handing it every inserted query at its slot. qcnAcc must be in
// (0, 1].
func NewResident[Q any](capacity int, qcnAcc float64, r Resident[Q]) *Cache[Q] {
	if capacity < 1 {
		panic(fmt.Sprintf("qcache: capacity %d < 1", capacity))
	}
	if qcnAcc <= 0 || qcnAcc > 1 {
		panic(fmt.Sprintf("qcache: QCN accuracy %v outside (0,1]", qcnAcc))
	}
	if r == nil {
		panic("qcache: nil resident")
	}
	return &Cache[Q]{capacity: capacity, qcnAcc: qcnAcc, resident: r}
}

// SetBatchScorer makes a cache built by New score its queries batch at a
// time through bs instead of calling the Scorer per entry; a nil bs reverts
// to the Scorer. It panics on a cache built by NewResident.
func (c *Cache[Q]) SetBatchScorer(bs BatchScorer[Q], batch int) {
	t, ok := c.resident.(*table[Q])
	if !ok {
		panic("qcache: batch scorer for a cache that scores through its own Resident")
	}
	if bs != nil && batch < 1 {
		panic(fmt.Sprintf("qcache: batch %d < 1", batch))
	}
	t.batch, t.chunk = bs, batch
}

// table is the Resident of a cache built by New: the cached queries
// themselves by slot, scored by the Scorer or, when batch is set, chunk at
// a time by the BatchScorer. A key is the score itself, so Score is the
// identity.
type table[Q any] struct {
	slots []Q
	score Scorer[Q]
	batch BatchScorer[Q]
	chunk int
}

func (t *table[Q]) Put(slot int, q Q) {
	if slot >= len(t.slots) {
		t.slots = slices.Grow(t.slots, slot+1-len(t.slots))[:slot+1]
	}
	t.slots[slot] = q
}

func (t *table[Q]) Keys(keys []float64, q Q) {
	slots := t.slots[:len(keys)]
	if t.batch == nil {
		for s, cached := range slots {
			keys[s] = t.score(q, cached)
		}
		return
	}
	for lo := 0; lo < len(slots); lo += t.chunk {
		hi := min(lo+t.chunk, len(slots))
		t.batch(keys[lo:hi], q, slots[lo:hi])
	}
}

func (t *table[Q]) Score(key float64) float64 { return key }

// Len returns the number of cached entries.
func (c *Cache[Q]) Len() int { return len(c.entries) }

// Stats returns a snapshot of the counters.
func (c *Cache[Q]) Stats() Stats { return c.stats }

// Lookup runs Algorithm 1: compare the query with every cached entry,
// take the entry with the maximum confidence-weighted score, and hit when
// the score's complement is within the threshold. On a hit the entry is
// promoted (LRU) and its results returned; the caller re-ranks them against
// the new query with the SCN (line 13 of Algorithm 1).
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

// sweep returns the LRU index and confidence-weighted score of the
// best-matching entry (-1 when the cache is empty or no entry scores above
// zero). Every slot is keyed in one pass; the entries are then walked in
// LRU index order and the first strictly greater weighted score wins —
// Algorithm 1's first-match winner, whatever order the slots are in.
//
// Only a key above every key before it is scored. Score never decreases, so
// any other key scores no higher than the mark, the highest key scored so
// far, and the mark's weighted score is already at most maxScore: the
// skipped entry could not be strictly greater. The first non-NaN key is
// scored whatever its value, −Inf included.
func (c *Cache[Q]) sweep(q Q) (int, float64) {
	n := len(c.entries)
	c.keys = slices.Grow(c.keys[:0], n)[:n]
	c.resident.Keys(c.keys, q)
	maxIndex, maxScore := -1, 0.0
	mark, marked := 0.0, false
	for i := range c.entries {
		k := c.keys[c.entries[i].slot]
		if k > mark || !marked && k == k {
			mark, marked = k, true
			c.stats.Activations++
			if s := c.resident.Score(k) * c.qcnAcc; s > maxScore {
				maxScore = s
				maxIndex = i
			}
		}
	}
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
// evicted (line 16). The newcomer takes the victim's slot and the victim's
// place is overwritten by the shift that makes room at the front, so an
// evicted entry is never left reachable.
func (c *Cache[Q]) Insert(q Q, results []topk.Entry) {
	e := Entry[Q]{Query: q, Results: results, slot: len(c.entries)}
	if c.policy != nil {
		e.Key = c.policy.Key(q)
	}
	victim := -1
	if len(c.entries) == c.capacity {
		victim = len(c.entries) - 1
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
		e.slot = c.entries[victim].slot
	}
	// The resident takes q before any entry moves, so one that refuses it
	// leaves the cache as it was.
	c.resident.Put(e.slot, q)
	if victim < 0 {
		c.entries = append(c.entries, Entry[Q]{})
		victim = len(c.entries) - 1
	} else {
		c.stats.Evictions++
	}
	copy(c.entries[1:victim+1], c.entries[:victim])
	c.entries[0] = e
	c.stats.Insertions++
}

// Clear removes every entry, keeping statistics; the next insert takes slot
// 0 again. Entries — and a New cache's slot table — are zeroed before they
// are truncated so the backing arrays stop pinning the cleared query vectors
// and result lists.
func (c *Cache[Q]) Clear() {
	clear(c.entries)
	c.entries = c.entries[:0]
	if t, ok := c.resident.(*table[Q]); ok {
		clear(t.slots)
		t.slots = t.slots[:0]
	}
}
