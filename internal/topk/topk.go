// Package topk implements the top-K selection hardware of the DeepStore
// accelerator controller (§4.3): a bounded priority queue realized as a
// sorted tag array plus a mapping table. As the systolic array emits
// similarity scores, the controller binary-searches the tag array, shifts
// lower-priority tags down, and drops the minimum — exactly the structure
// modeled here. The query engine merges per-accelerator queues into the
// final top-K (§4.7.1).
//
// A Queue is not safe for concurrent use; the parallel scan gives every
// worker its own queue and reduces them with Merge. Because entries are
// totally ordered (Score descending, FeatureID ascending on ties), the
// merged result is independent of both offer order and merge order — the
// property the engine's parallel/serial equivalence tests rely on.
package topk

import "fmt"

// Entry is one candidate result: a feature's identity, its similarity score,
// and the ObjectID (physical address of the feature vector, §4.2) used to
// fetch the raw data.
type Entry struct {
	FeatureID int64
	Score     float32
	ObjectID  uint64
}

// Queue keeps the K highest-scoring entries seen so far. Ties are broken in
// favor of the earlier FeatureID, making results deterministic.
type Queue struct {
	k int
	// entries is kept sorted by descending score (the sorted tag array).
	entries []Entry
}

// New creates a queue keeping the top k entries (k >= 1).
func New(k int) *Queue {
	if k < 1 {
		panic(fmt.Sprintf("topk: k = %d < 1", k))
	}
	return &Queue{k: k, entries: make([]Entry, 0, k)}
}

// less reports whether a outranks b.
func less(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.FeatureID < b.FeatureID
}

// Offer considers an entry, returning true if it entered the top-K. The
// insert is a binary search over the tag array followed by a shift, matching
// the §4.3 hardware.
func (q *Queue) Offer(e Entry) bool {
	// Binary search for insertion position (first index where e outranks).
	lo, hi := 0, len(q.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if less(e, q.entries[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= q.k {
		return false
	}
	if len(q.entries) < q.k {
		q.entries = append(q.entries, Entry{})
	}
	copy(q.entries[lo+1:], q.entries[lo:])
	q.entries[lo] = e
	return true
}

// Min returns the lowest retained score, or ok=false when the queue is not
// yet full (so any score would be admitted).
func (q *Queue) Min() (score float32, ok bool) {
	if len(q.entries) < q.k {
		return 0, false
	}
	return q.entries[len(q.entries)-1].Score, true
}

// Results returns the entries in rank order (best first). The returned slice
// is a copy.
func (q *Queue) Results() []Entry {
	out := make([]Entry, len(q.entries))
	copy(out, q.entries)
	return out
}

// Reset empties the queue for reuse across queries.
func (q *Queue) Reset() { q.entries = q.entries[:0] }

// Merge combines per-accelerator queues into a single top-k, the query
// engine's reduce step (§4.7.1).
func Merge(k int, queues ...*Queue) *Queue {
	out := New(k)
	for _, q := range queues {
		if q == nil {
			continue
		}
		for _, e := range q.entries {
			out.Offer(e)
		}
	}
	return out
}
