package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOfferKeepsBest(t *testing.T) {
	q := New(3)
	for i, s := range []float32{0.1, 0.9, 0.5, 0.7, 0.2} {
		q.Offer(Entry{FeatureID: int64(i), Score: s})
	}
	got := q.Results()
	want := []float32{0.9, 0.7, 0.5}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i].Score != want[i] {
			t.Errorf("rank %d score = %v, want %v", i, got[i].Score, want[i])
		}
	}
}

func TestOfferReturnValue(t *testing.T) {
	q := New(2)
	if !q.Offer(Entry{FeatureID: 1, Score: 0.5}) {
		t.Error("offer to empty queue rejected")
	}
	if !q.Offer(Entry{FeatureID: 2, Score: 0.6}) {
		t.Error("offer to non-full queue rejected")
	}
	if q.Offer(Entry{FeatureID: 3, Score: 0.1}) {
		t.Error("loser accepted into full queue")
	}
	if !q.Offer(Entry{FeatureID: 4, Score: 0.55}) {
		t.Error("winner rejected from full queue")
	}
}

func TestTieBreakByFeatureID(t *testing.T) {
	q := New(2)
	q.Offer(Entry{FeatureID: 7, Score: 0.5})
	q.Offer(Entry{FeatureID: 3, Score: 0.5})
	q.Offer(Entry{FeatureID: 5, Score: 0.5})
	got := q.Results()
	if got[0].FeatureID != 3 || got[1].FeatureID != 5 {
		t.Errorf("tie break wrong: %+v", got)
	}
}

func TestMin(t *testing.T) {
	q := New(2)
	if _, ok := q.Min(); ok {
		t.Error("min defined on non-full queue")
	}
	q.Offer(Entry{FeatureID: 1, Score: 0.9})
	q.Offer(Entry{FeatureID: 2, Score: 0.3})
	if s, ok := q.Min(); !ok || s != 0.3 {
		t.Errorf("min = %v, %v", s, ok)
	}
}

func TestReset(t *testing.T) {
	q := New(2)
	q.Offer(Entry{FeatureID: 1, Score: 1})
	q.Reset()
	if len(q.entries) != 0 {
		t.Error("reset did not empty queue")
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	New(0)
}

// TestMatchesReferenceSort is the property test: for random score streams,
// the queue equals the top-K of a full sort.
func TestMatchesReferenceSort(t *testing.T) {
	f := func(seed int64, kk uint8) bool {
		k := int(kk%16) + 1
		rng := rand.New(rand.NewSource(seed))
		n := 100
		entries := make([]Entry, n)
		q := New(k)
		for i := range entries {
			entries[i] = Entry{FeatureID: int64(i), Score: float32(rng.Intn(50)) / 50}
			q.Offer(entries[i])
		}
		sort.Slice(entries, func(i, j int) bool { return less(entries[i], entries[j]) })
		want := entries[:k]
		got := q.Results()
		if len(got) != k {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMergeEqualsGlobalTopK: merging per-accelerator queues must equal the
// top-K over the union, the §4.7.1 map-reduce invariant.
func TestMergeEqualsGlobalTopK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const k, shards, perShard = 5, 4, 30
		var all []Entry
		qs := make([]*Queue, shards)
		for s := range qs {
			qs[s] = New(k)
			for i := 0; i < perShard; i++ {
				e := Entry{FeatureID: int64(s*perShard + i), Score: float32(rng.Intn(100)) / 100}
				all = append(all, e)
				qs[s].Offer(e)
			}
		}
		merged := Merge(k, qs...)
		ref := New(k)
		for _, e := range all {
			ref.Offer(e)
		}
		got, want := merged.Results(), ref.Results()
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMergeHandlesNil(t *testing.T) {
	q := New(2)
	q.Offer(Entry{FeatureID: 1, Score: 0.5})
	m := Merge(2, nil, q, nil)
	if len(m.entries) != 1 {
		t.Errorf("merge with nils lost entries: %d", len(m.entries))
	}
}

func BenchmarkOffer(b *testing.B) {
	q := New(10)
	rng := rand.New(rand.NewSource(1))
	scores := make([]float32, 1024)
	for i := range scores {
		scores[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Offer(Entry{FeatureID: int64(i), Score: scores[i%1024]})
	}
}
