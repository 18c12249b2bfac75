package qcache

import (
	"math/rand"
	"testing"

	"repro/internal/topk"
)

// scriptedPolicy drives Insert decisions from canned answers.
type scriptedPolicy struct {
	admit  bool
	victim int
	calls  int
}

func (p *scriptedPolicy) Key(q int) uint64 { return uint64(q) }
func (p *scriptedPolicy) Victim(key uint64, entries []Entry[int]) (int, bool) {
	p.calls++
	return p.victim, p.admit
}

func fill(c *Cache[int], vals ...int) {
	for _, v := range vals {
		c.Insert(v, []topk.Entry{{FeatureID: int64(v)}})
	}
}

func order(c *Cache[int]) []int {
	out := make([]int, len(c.entries))
	for i, e := range c.entries {
		out[i] = e.Query
	}
	return out
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// While the cache is filling, the policy is never consulted — admission only
// gates displacement.
func TestPolicyNotConsultedBelowCapacity(t *testing.T) {
	p := &scriptedPolicy{admit: false, victim: -1}
	c := New[int](3, 1, intScorer)
	c.SetPolicy(p)
	fill(c, 1, 2, 3)
	if p.calls != 0 {
		t.Fatalf("policy consulted %d times during fill", p.calls)
	}
	if !eq(order(c), []int{3, 2, 1}) {
		t.Fatalf("order %v", order(c))
	}
}

func TestPolicyRejectLeavesCacheUntouched(t *testing.T) {
	p := &scriptedPolicy{admit: false}
	c := New[int](2, 1, intScorer)
	c.SetPolicy(p)
	fill(c, 1, 2, 3)
	if !eq(order(c), []int{2, 1}) {
		t.Fatalf("rejected insert mutated cache: %v", order(c))
	}
	st := c.Stats()
	if st.AdmissionRejects != 1 || st.Evictions != 0 || st.Insertions != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPolicyVictimSelection(t *testing.T) {
	p := &scriptedPolicy{admit: true, victim: 0}
	c := New[int](3, 1, intScorer)
	c.SetPolicy(p)
	fill(c, 1, 2, 3, 4) // evicting index 0 (the MRU, 3) on the last insert
	if !eq(order(c), []int{4, 2, 1}) {
		t.Fatalf("order %v", order(c))
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// A policy answering (-1, true) — and out-of-range victims — must reproduce
// plain LRU bit-identically, stats included.
func TestDeferringPolicyIsLRU(t *testing.T) {
	for _, victim := range []int{-1, 99} {
		plain := New[int](3, 1, intScorer)
		pol := New[int](3, 1, intScorer)
		pol.SetPolicy(&scriptedPolicy{admit: true, victim: victim})
		seq := []int{1, 2, 3, 4, 2, 5, 6, 2, 7}
		for _, v := range seq {
			if _, hit := plain.Lookup(v, 0.1); !hit {
				plain.Insert(v, nil)
			}
			if _, hit := pol.Lookup(v, 0.1); !hit {
				pol.Insert(v, nil)
			}
			if !eq(order(plain), order(pol)) {
				t.Fatalf("victim %d: diverged at %d: %v vs %v", victim, v, order(plain), order(pol))
			}
		}
		if plain.Stats() != pol.Stats() {
			t.Fatalf("victim %d: stats %+v vs %+v", victim, plain.Stats(), pol.Stats())
		}
	}
}

func TestSetPolicyNilRestoresLRU(t *testing.T) {
	c := New[int](2, 1, intScorer)
	c.SetPolicy(&scriptedPolicy{admit: false})
	c.SetPolicy(nil)
	fill(c, 1, 2, 3)
	if !eq(order(c), []int{3, 2}) {
		t.Fatalf("order %v", order(c))
	}
}

// testKey is the fingerprint both the recording policy and the two-hook
// reference use: several queries share a key, like queries share a group.
func testKey(q int) uint64 { return uint64(q%5) + 100 }

// recordingPolicy scores keys from a table the test mutates between inserts
// (as mining mutates the learned model), picks the weakest resident entry
// from the STORED keys, and counts who called what.
type recordingPolicy struct {
	score    map[uint64]int
	keyCalls int
	victims  int
}

func (p *recordingPolicy) Key(q int) uint64 {
	p.keyCalls++
	return testKey(q)
}

func (p *recordingPolicy) Victim(key uint64, entries []Entry[int]) (int, bool) {
	p.victims++
	idx, weakest := -1, 0
	for i, e := range entries {
		if s := p.score[e.Key]; idx < 0 || s <= weakest {
			idx, weakest = i, s
		}
	}
	return idx, p.score[key] >= weakest
}

// twoHookRef is the cache as it was before keyed entries: Admit and Evict
// each re-derive every resident key from the query and walk the entries
// separately. It is the oracle for LRU order and Stats.
type twoHookRef struct {
	capacity int
	entries  []int // [0] is most recently used
	score    map[uint64]int
	stats    Stats
}

func (r *twoHookRef) weakest() (int, int) {
	idx, weakest := -1, 0
	for i, q := range r.entries {
		if s := r.score[testKey(q)]; idx < 0 || s <= weakest {
			idx, weakest = i, s
		}
	}
	return idx, weakest
}

func (r *twoHookRef) lookup(q int) bool {
	r.stats.Lookups++
	r.stats.Comparisons += uint64(len(r.entries))
	if len(r.entries) > 0 {
		r.stats.Activations++ // the first entry's score, 0.1 or 1
	}
	for i, e := range r.entries {
		if e == q {
			if i > 0 {
				r.stats.Activations++ // the first 1 after the 0.1s
			}
			r.stats.Hits++
			copy(r.entries[1:i+1], r.entries[:i])
			r.entries[0] = q
			return true
		}
	}
	r.stats.Misses++
	return false
}

func (r *twoHookRef) insert(q int) {
	if len(r.entries) == r.capacity {
		if _, w := r.weakest(); r.score[testKey(q)] < w { // Admit
			r.stats.AdmissionRejects++
			return
		}
		victim, _ := r.weakest() // Evict
		r.entries = append(r.entries[:victim], r.entries[victim+1:]...)
		r.stats.Evictions++
	}
	r.entries = append([]int{q}, r.entries...)
	r.stats.Insertions++
}

// Property: over random insert/lookup/clear sequences with a drifting score
// table, every resident Key is the policy's key of its query, Key runs
// exactly once per Insert and never from Lookup or Victim, and LRU order and
// Stats equal the two-hook reference's.
func TestKeyedEntriesMatchTwoHookReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		score := map[uint64]int{}
		pol := &recordingPolicy{score: score}
		capacity := 1 + rng.Intn(6)
		c := New[int](capacity, 1, intScorer)
		c.SetPolicy(pol)
		ref := &twoHookRef{capacity: capacity, score: score}
		inserts := 0
		for op := 0; op < 400; op++ {
			q := rng.Intn(12)
			before := pol.keyCalls
			switch r := rng.Intn(20); {
			case r == 0:
				c.Clear()
				ref.entries = ref.entries[:0]
			case r < 4:
				score[testKey(q)] = rng.Intn(4)
			case r < 12:
				_, hit := c.Lookup(q, 0.05)
				if refHit := ref.lookup(q); hit != refHit {
					t.Fatalf("seed %d op %d: lookup(%d) hit %v, reference %v", seed, op, q, hit, refHit)
				}
			default:
				c.Insert(q, nil)
				ref.insert(q)
				inserts++
				before++
			}
			if pol.keyCalls != before {
				t.Fatalf("seed %d op %d: Key called %d times, want %d", seed, op, pol.keyCalls, before)
			}
			if !eq(order(c), ref.entries) {
				t.Fatalf("seed %d op %d: order %v, reference %v", seed, op, order(c), ref.entries)
			}
			if c.Stats() != ref.stats {
				t.Fatalf("seed %d op %d: stats %+v, reference %+v", seed, op, c.Stats(), ref.stats)
			}
			for i, e := range c.entries {
				if e.Key != testKey(e.Query) {
					t.Fatalf("seed %d op %d: entry %d (query %d) has key %d", seed, op, i, e.Query, e.Key)
				}
			}
		}
		if pol.keyCalls != inserts {
			t.Fatalf("seed %d: %d Key calls for %d inserts", seed, pol.keyCalls, inserts)
		}
		if pol.victims == 0 {
			t.Fatalf("seed %d: the policy never decided a full-cache insert", seed)
		}
	}
}

// A policy installed on a non-empty cache re-keys the residents, and removing
// it zeroes the keys again.
func TestSetPolicyRekeysResidents(t *testing.T) {
	c := New[int](3, 1, intScorer)
	fill(c, 1, 2, 3)
	c.SetPolicy(&recordingPolicy{})
	for _, e := range c.entries {
		if e.Key != testKey(e.Query) {
			t.Fatalf("query %d keyed %d after SetPolicy", e.Query, e.Key)
		}
	}
	c.SetPolicy(nil)
	for _, e := range c.entries {
		if e.Key != 0 {
			t.Fatalf("query %d keeps key %d without a policy", e.Query, e.Key)
		}
	}
}

// Clear and eviction must not leave dropped entries reachable through the
// backing arrays — the entries' or the slot table New's Resident adapter
// scores: every place past len is zero, an evicted entry's query and results
// appear nowhere, and after Clear the next insert takes slot 0.
func TestClearedAndEvictedSlotsUnpinned(t *testing.T) {
	c := New[int](3, 1, intScorer)
	tab := c.resident.(*table[int])
	fill(c, 1, 2, 3, 4) // evicts 1
	for _, e := range c.entries[:cap(c.entries)] {
		if e.Query == 1 || (len(e.Results) == 1 && e.Results[0].FeatureID == 1) {
			t.Fatalf("evicted entry still in the backing array: %+v", e)
		}
	}
	for s, q := range tab.slots[:cap(tab.slots)] {
		if q == 1 {
			t.Fatalf("evicted query still in slot %d", s)
		}
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("len %d after Clear", c.Len())
	}
	for i, e := range c.entries[:cap(c.entries)] {
		if e.Query != 0 || e.Results != nil || e.Key != 0 {
			t.Fatalf("entry %d still holds %+v after Clear", i, e)
		}
	}
	for s, q := range tab.slots[:cap(tab.slots)] {
		if q != 0 {
			t.Fatalf("slot %d still holds query %d after Clear", s, q)
		}
	}
	fill(c, 5)
	if c.entries[0].slot != 0 || tab.slots[0] != 5 {
		t.Fatalf("first insert after Clear took slot %d holding %d", c.entries[0].slot, tab.slots[0])
	}
}
