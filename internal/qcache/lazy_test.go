package qcache

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// keyedResident is a Resident whose keys the test sets outright: query q's
// key against every cached query c is keyOf[c], whatever q, and score is the
// non-decreasing map from key to similarity — a QCN's logits and activation
// in miniature.
type keyedResident struct {
	keyOf []float64
	qs    []int
	score func(float64) float64
}

func (r *keyedResident) Put(slot int, q int) {
	for len(r.qs) <= slot {
		r.qs = append(r.qs, 0)
	}
	r.qs[slot] = q
}

func (r *keyedResident) Keys(keys []float64, _ int) {
	for s := range keys {
		keys[s] = r.keyOf[r.qs[s]]
	}
}

func (r *keyedResident) Score(key float64) float64 { return r.score(key) }

// Saturating scores: sigmoid32 is the QCN's float32 sigmoid, which is
// exactly 1 from a logit of about 17 and exactly 0 below about −104; floored
// is above zero even at −Inf, so the first key must be scored whatever it
// is; steps has few levels, so unequal keys tie.
var (
	sigmoid32 = func(k float64) float64 { return float64(float32(1 / (1 + math.Exp(-float64(float32(k)))))) }
	floored   = func(k float64) float64 { return min(max(0.25+k/8, 0.25), 1) }
	steps     = func(k float64) float64 { return math.Floor(sigmoid32(k)*4) / 4 }
)

// keyedCache returns a cache whose entries, in LRU order, have keys
// lruKeys — entries[i].Query is i — with slots scrambled by promotions
// drawn from rng (none when rng is nil), scored by score.
func keyedCache(lruKeys []float64, acc float64, score func(float64) float64, rng *rand.Rand) (*Cache[int], *keyedResident) {
	n := len(lruKeys)
	r := &keyedResident{keyOf: make([]float64, n), score: score}
	c := NewResident[int](max(n, 1), acc, r)
	for q := n - 1; q >= 0; q-- {
		c.Insert(q, nil)
	}
	if rng != nil {
		for range 2 * n {
			c.promote(rng.Intn(n))
		}
	}
	for i, e := range c.entries {
		r.keyOf[e.Query] = lruKeys[i]
	}
	return c, r
}

// eagerSweep is Algorithm 1 with every entry activated: each key scored in
// LRU index order, the first strictly greater weighted score winning.
func eagerSweep(c *Cache[int], r *keyedResident) (int, float64) {
	maxIndex, maxScore := -1, 0.0
	for i, e := range c.entries {
		if s := r.score(r.keyOf[e.Query]) * c.qcnAcc; s > maxScore {
			maxIndex, maxScore = i, s
		}
	}
	return maxIndex, maxScore
}

// sameSweep fails t unless the cache's lazy sweep picks the eager sweep's
// entry and score (to the bit), activating at most once per entry.
func sameSweep(t *testing.T, what string, c *Cache[int], r *keyedResident) {
	t.Helper()
	wantIdx, wantScore := eagerSweep(c, r)
	before := c.stats.Activations
	gotIdx, gotScore := c.sweep(0)
	if gotIdx != wantIdx || math.Float64bits(gotScore) != math.Float64bits(wantScore) {
		t.Fatalf("%s: sweep = (%d, %v), eager = (%d, %v)", what, gotIdx, gotScore, wantIdx, wantScore)
	}
	if a := c.stats.Activations - before; a > uint64(c.Len()) {
		t.Fatalf("%s: %d activations for %d entries", what, a, c.Len())
	}
}

var (
	nan    = math.NaN()
	inf    = math.Inf(1)
	negZer = math.Copysign(0, -1)
)

// adversarialSweeps is TestBatchedSweepMatchesScalar's adversarial leg: the
// cases where skipping an entry could go wrong. Logits 20, 30 and 40 all saturate to 1.0, so the lowest, first in
// LRU order, wins even though larger logits follow; NaN keys never win and
// never block a later entry; −Inf, −0 and +0 keys are scored as their
// values say; an all-zero landscape has no winner; a single entry is
// scored. Each case names its winner, and the lazy sweep also equals the
// eager one.
func adversarialSweeps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		keys  []float64
		score func(float64) float64
		want  int
		acts  uint64
	}{
		{"saturated ties", []float64{20, 30, 40}, sigmoid32, 0, 3},
		{"saturated ties after a miss", []float64{-1, 20, 40, 30}, sigmoid32, 1, 3},
		{"saturated ties, weighted", []float64{18, 25}, sigmoid32, 0, 2},
		{"NaN first", []float64{nan, nan, 1, nan, 2, nan}, sigmoid32, 4, 2},
		{"infinities and zeros", []float64{nan, -inf, negZer, 0, nan, inf, 5}, sigmoid32, 5, 3},
		{"−Inf first scores above zero", []float64{-inf, -inf, nan}, floored, 0, 1},
		{"+0 after −0 ties", []float64{negZer, 0, negZer}, floored, 0, 1},
		{"ties between steps", []float64{0.1, 0.5, 0.9, 0.3}, steps, 0, 3},
		{"all zero", []float64{-inf, -200, -inf, -150}, sigmoid32, -1, 3},
		{"all NaN", []float64{nan, nan}, sigmoid32, -1, 0},
		{"single entry", []float64{3}, sigmoid32, 0, 1},
		{"single NaN entry", []float64{nan}, sigmoid32, -1, 0},
	} {
		for _, acc := range []float64{1, 0.9} {
			c, r := keyedCache(tc.keys, acc, tc.score, nil)
			what := fmt.Sprintf("%s, acc %v", tc.name, acc)
			sameSweep(t, what, c, r)
			c.stats.Activations = 0
			if got, _ := c.sweep(0); got != tc.want || c.stats.Activations != tc.acts {
				t.Errorf("%s: winner %d after %d activations, want %d after %d", what, got, c.stats.Activations, tc.want, tc.acts)
			}
		}
	}
}

// FuzzLazySweepMatchesEager: over random keys — raw float32 patterns
// (NaNs, infinities, zeros and saturating logits included) or picks from a
// palette of ties — a random LRU permutation of the slots, a random QCN
// accuracy and a saturating non-decreasing score, the lazy sweep picks the
// entry and score an eager sweep that activates every entry picks.
func FuzzLazySweepMatchesEager(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0x41, 0xa0, 0, 0, 0x41, 0xf0, 0, 0, 0x42, 0x20, 0, 0})
	f.Add(int64(2), uint8(1), []byte{0xff, 0x80, 0, 0, 0x7f, 0xc0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0x80, 0, 0})
	f.Add(int64(3), uint8(2), []byte{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31})
	palette := []float64{nan, -inf, inf, negZer, 0, -20, -1, 0.5, 1, 17, 20, 30, 40}
	scores := []func(float64) float64{sigmoid32, floored, steps}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, raw []byte) {
		var keys []float64
		for len(raw) >= 4 && len(keys) < 300 {
			w := binary.BigEndian.Uint32(raw)
			if w&1 == 0 {
				keys = append(keys, float64(math.Float32frombits(w)))
			} else {
				keys = append(keys, palette[int(w>>1)%len(palette)])
			}
			raw = raw[4:]
		}
		if len(keys) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		acc := []float64{1, 0.95, 0.3}[rng.Intn(3)]
		c, r := keyedCache(keys, acc, scores[int(kind)%len(scores)], rng)
		sameSweep(t, fmt.Sprintf("keys %v, acc %v", keys, acc), c, r)
	})
}
