// Package reorg implements in-storage feature reorganization, the §7
// extension the paper points at ("recent work has explored reorganizing
// feature vectors in-storage for efficient search operations; such
// techniques can also be exploited by DeepStore"): feature vectors are
// clustered offline, stored cluster-contiguously, and a query scans only the
// clusters whose centroids score highest — trading a bounded recall loss for
// a proportional cut in flash traffic and SCN compute.
package reorg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Typed validation errors, so callers can distinguish degenerate inputs from
// internal failures (errors.Is works through the wrapped detail).
var (
	// ErrNoVectors rejects clustering or ranking over an empty input.
	ErrNoVectors = errors.New("reorg: no vectors")
	// ErrBadK rejects cluster counts outside [1, len(vectors)].
	ErrBadK = errors.New("reorg: cluster count out of range")
	// ErrBadStripe rejects non-positive stripe granularities and window
	// widths in the heat-ranking helpers.
	ErrBadStripe = errors.New("reorg: stripe parameter out of range")
)

// Clustering is the offline product: centroids and the cluster-contiguous
// feature order.
type Clustering struct {
	// Centroids[c] is cluster c's mean vector.
	Centroids [][]float32
	// Assign[i] is the cluster of original feature i.
	Assign []int
	// Order lists original feature indices cluster by cluster — the §4.4
	// striping order a reorganized database would use.
	Order []int
	// Offsets[c] is the first position of cluster c in Order;
	// Offsets[len(Centroids)] == len(Order).
	Offsets []int
}

// KMeans clusters the vectors with Lloyd's algorithm (deterministic
// seeding, fixed iteration budget — reorganization happens offline, §2.1's
// offline phase).
func KMeans(vectors [][]float32, k int, iters int, seed int64) (*Clustering, error) {
	n := len(vectors)
	if n == 0 {
		return nil, ErrNoVectors
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k = %d for %d vectors", ErrBadK, k, n)
	}
	dims := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dims {
			return nil, fmt.Errorf("reorg: vector %d has %d dims, want %d", i, len(v), dims)
		}
	}
	rng := rand.New(rand.NewSource(seed))

	// Farthest-point seeding: the first centroid is random, each further
	// one is the vector farthest from every chosen centroid. For separated
	// data this lands one seed per true cluster, avoiding the classic
	// merged/split local optimum of uniform random initialization.
	centroids := make([][]float32, 0, k)
	first := make([]float32, dims)
	copy(first, vectors[rng.Intn(n)])
	centroids = append(centroids, first)
	minD := make([]float64, n)
	for i, v := range vectors {
		minD[i] = sqDist(v, first)
	}
	for len(centroids) < k {
		far, farD := 0, -1.0
		for i, d := range minD {
			if d > farD {
				far, farD = i, d
			}
		}
		c := make([]float32, dims)
		copy(c, vectors[far])
		centroids = append(centroids, c)
		for i, v := range vectors {
			if d := sqDist(v, c); d < minD[i] {
				minD[i] = d
			}
		}
	}

	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range vectors {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				d := sqDist(v, centroids[c])
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dims)
		}
		for i, v := range vectors {
			c := assign[i]
			counts[c]++
			for j, x := range v {
				sums[c][j] += float64(x)
			}
		}
		// Re-seed empty clusters deterministically before recomputing means:
		// an empty cluster steals the vector farthest from its assigned
		// centroid (ties break to the lowest index), drawn only from clusters
		// with more than one member so the donor never empties in turn. With
		// k ≤ n the pigeonhole principle guarantees such a donor exists
		// whenever any cluster is empty, so every cluster leaves the
		// iteration non-empty — no out-of-range assignment, no NaN centroid
		// from a 0/0 mean, and the same clustering on every run.
		for c := range centroids {
			if counts[c] != 0 {
				continue
			}
			far, farD := -1, -1.0
			for i, v := range vectors {
				if counts[assign[i]] <= 1 {
					continue
				}
				if d := sqDist(v, centroids[assign[i]]); d > farD {
					far, farD = i, d
				}
			}
			if far < 0 {
				// Unreachable for k ≤ n; guarded so a future invariant break
				// degrades to the old behavior instead of a 0/0 mean.
				far = c % n
			}
			donor := assign[far]
			for j, x := range vectors[far] {
				sums[donor][j] -= float64(x)
				sums[c][j] += float64(x)
			}
			counts[donor]--
			counts[c]++
			assign[far] = c
			changed = true
		}
		for c := range centroids {
			for j := range centroids[c] {
				centroids[c][j] = float32(sums[c][j] / float64(counts[c]))
			}
		}
		if !changed && it > 0 {
			break
		}
	}

	cl := &Clustering{Centroids: centroids, Assign: assign}
	cl.buildOrder(n, k)
	return cl, nil
}

func (cl *Clustering) buildOrder(n, k int) {
	cl.Order = make([]int, 0, n)
	cl.Offsets = make([]int, k+1)
	for c := 0; c < k; c++ {
		cl.Offsets[c] = len(cl.Order)
		for i := 0; i < n; i++ {
			if cl.Assign[i] == c {
				cl.Order = append(cl.Order, i)
			}
		}
	}
	cl.Offsets[k] = len(cl.Order)
}

// ApplyOrder materializes a reorganization: new[j] = vectors[order[j]].
// order must be a permutation of [0, len(vectors)); the input slice is not
// modified (the migration writes a fresh copy, as the flash move does).
func ApplyOrder(vectors [][]float32, order []int) ([][]float32, error) {
	if len(order) != len(vectors) {
		return nil, fmt.Errorf("reorg: order has %d entries for %d vectors", len(order), len(vectors))
	}
	seen := make([]bool, len(vectors))
	out := make([][]float32, len(vectors))
	for j, src := range order {
		if src < 0 || src >= len(vectors) {
			return nil, fmt.Errorf("reorg: order[%d] = %d out of range", j, src)
		}
		if seen[src] {
			return nil, fmt.Errorf("reorg: order repeats source index %d", src)
		}
		seen[src] = true
		out[j] = vectors[src]
	}
	return out, nil
}

func sqDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i] - b[i])
		s += d * d
	}
	return s
}

// RankClusters orders cluster indices by a query's affinity to their
// centroids, using the provided scorer (e.g. the SCN or QCN itself, so the
// pruning decision uses the same learned similarity as the scan).
func (cl *Clustering) RankClusters(score func(centroid []float32) float32) []int {
	type ranked struct {
		c int
		s float32
	}
	rs := make([]ranked, len(cl.Centroids))
	for c, cent := range cl.Centroids {
		rs[c] = ranked{c: c, s: score(cent)}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].s != rs[j].s {
			return rs[i].s > rs[j].s
		}
		return rs[i].c < rs[j].c
	})
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.c
	}
	return out
}

// StripeHeat folds per-feature heat (e.g. top-K appearance counts) into
// per-stripe totals at the given stripe granularity — the aggregation the
// rebalancer feeds into RankStripes/HottestWindow to pick which stripe range
// migrates off a hot shard.
func StripeHeat(perFeature []int64, stripeFeatures int) ([]float64, error) {
	if stripeFeatures < 1 {
		return nil, fmt.Errorf("%w: stripe of %d features", ErrBadStripe, stripeFeatures)
	}
	if len(perFeature) == 0 {
		return nil, ErrNoVectors
	}
	stripes := (len(perFeature) + stripeFeatures - 1) / stripeFeatures
	out := make([]float64, stripes)
	for i, h := range perFeature {
		out[i/stripeFeatures] += float64(h)
	}
	return out, nil
}

// RankStripes orders stripe indices hottest-first — the RankClusters
// discipline (descending score, ascending index on ties) applied to
// per-stripe heat, so the migration candidate order is deterministic.
func RankStripes(heat []float64) []int {
	out := make([]int, len(heat))
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(i, j int) bool {
		if heat[out[i]] != heat[out[j]] {
			return heat[out[i]] > heat[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// OrderByHeat turns per-stripe heat into a full feature permutation that
// packs stripes hottest-first: stripe s (features [s·stripeFeatures,
// (s+1)·stripeFeatures) of an n-feature database, the last stripe possibly
// partial) keeps its internal order but stripes are concatenated in
// RankStripes order. The result is a valid ApplyOrder permutation placing
// the hottest stripes at the lowest feature indices — the earliest,
// lowest-latency pages of every channel.
func OrderByHeat(heat []float64, stripeFeatures, n int) ([]int, error) {
	if n <= 0 {
		return nil, ErrNoVectors
	}
	if stripeFeatures < 1 {
		return nil, fmt.Errorf("%w: stripe of %d features", ErrBadStripe, stripeFeatures)
	}
	stripes := (n + stripeFeatures - 1) / stripeFeatures
	if len(heat) != stripes {
		return nil, fmt.Errorf("%w: %d heat entries for %d stripes", ErrBadStripe, len(heat), stripes)
	}
	order := make([]int, 0, n)
	for _, s := range RankStripes(heat) {
		lo := s * stripeFeatures
		hi := lo + stripeFeatures
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			order = append(order, i)
		}
	}
	return order, nil
}

// HottestWindow returns the start index of the contiguous w-stripe window
// with the greatest total heat (ties break to the lowest start) — the
// stripe range an online split migrates as one contiguous move.
func HottestWindow(heat []float64, w int) (int, error) {
	if w < 1 || w > len(heat) {
		return 0, fmt.Errorf("%w: window of %d over %d stripes", ErrBadStripe, w, len(heat))
	}
	var sum float64
	for _, h := range heat[:w] {
		sum += h
	}
	best, bestSum := 0, sum
	for s := 1; s+w <= len(heat); s++ {
		sum += heat[s+w-1] - heat[s-1]
		if sum > bestSum {
			best, bestSum = s, sum
		}
	}
	return best, nil
}

// Candidates returns the original feature indices of the top-m ranked
// clusters for the query, plus the fraction of the database they cover —
// the pruned scan set.
func (cl *Clustering) Candidates(ranked []int, m int) (indices []int, fraction float64) {
	if m > len(ranked) {
		m = len(ranked)
	}
	for _, c := range ranked[:m] {
		indices = append(indices, cl.Order[cl.Offsets[c]:cl.Offsets[c+1]]...)
	}
	if len(cl.Order) > 0 {
		fraction = float64(len(indices)) / float64(len(cl.Order))
	}
	return indices, fraction
}
