package reorg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// clusteredData builds n vectors drawn from k well-separated centers.
func clusteredData(n, k, dims int, seed int64) (vectors [][]float32, truth []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, k)
	for c := range centers {
		v := make([]float32, dims)
		for j := range v {
			v[j] = float32(c*10) + rng.Float32()
		}
		centers[c] = v
	}
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		v := make([]float32, dims)
		for j := range v {
			v[j] = centers[c][j] + 0.1*(rng.Float32()*2-1)
		}
		vectors = append(vectors, v)
		truth = append(truth, c)
	}
	return vectors, truth
}

func TestKMeansRecoversSeparatedClusters(t *testing.T) {
	vectors, truth := clusteredData(300, 4, 8, 1)
	cl, err := KMeans(vectors, 4, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Well-separated clusters: every pair in the same true cluster must
	// land in the same found cluster (up to label permutation).
	label := map[int]int{}
	for i := range vectors {
		if want, ok := label[truth[i]]; ok {
			if cl.Assign[i] != want {
				t.Fatalf("vector %d split from its true cluster", i)
			}
		} else {
			label[truth[i]] = cl.Assign[i]
		}
	}
}

func TestClusteringOrderIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		vectors, _ := clusteredData(120, 3, 4, seed)
		cl, err := KMeans(vectors, 5, 10, seed)
		if err != nil {
			return false
		}
		seen := make([]bool, len(vectors))
		for _, i := range cl.Order {
			if i < 0 || i >= len(vectors) || seen[i] {
				return false
			}
			seen[i] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		// Offsets partition the order and sizes sum to n.
		total := 0
		for c := range cl.Centroids {
			total += cl.Offsets[c+1] - cl.Offsets[c]
		}
		return total == len(vectors)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRankClustersOrders(t *testing.T) {
	vectors, _ := clusteredData(200, 4, 8, 3)
	cl, err := KMeans(vectors, 4, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Score clusters by distance to a vector from cluster 0 in found
	// labels: its own cluster must rank first.
	q := vectors[0]
	ranked := cl.RankClusters(func(cent []float32) float32 {
		return -float32(sqDist(q, cent))
	})
	if ranked[0] != cl.Assign[0] {
		t.Errorf("own cluster ranked %v, assignment %d", ranked, cl.Assign[0])
	}
}

func TestCandidatesFraction(t *testing.T) {
	vectors, _ := clusteredData(400, 8, 4, 5)
	cl, err := KMeans(vectors, 8, 15, 6)
	if err != nil {
		t.Fatal(err)
	}
	ranked := cl.RankClusters(func([]float32) float32 { return 0 })
	all, frac := cl.Candidates(ranked, 8)
	if len(all) != 400 || frac != 1.0 {
		t.Errorf("full candidates = %d (%.2f)", len(all), frac)
	}
	some, frac2 := cl.Candidates(ranked, 2)
	if len(some) == 0 || frac2 >= 1 {
		t.Errorf("pruned candidates = %d (%.2f)", len(some), frac2)
	}
	// Over-asking clamps.
	if _, f := cl.Candidates(ranked, 99); f != 1.0 {
		t.Error("over-ask not clamped")
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans(nil, 1, 5, 1); err == nil {
		t.Error("empty input accepted")
	}
	v := [][]float32{{1}, {2}}
	if _, err := KMeans(v, 3, 5, 1); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := KMeans([][]float32{{1}, {1, 2}}, 1, 5, 1); err == nil {
		t.Error("ragged input accepted")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	vectors, _ := clusteredData(100, 3, 4, 9)
	a, _ := KMeans(vectors, 3, 10, 42)
	b, _ := KMeans(vectors, 3, 10, 42)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("kmeans not deterministic")
		}
	}
}

// TestKMeansDegenerateInputs: empty inputs and out-of-range k return the
// typed errors instead of panicking or looping.
func TestKMeansDegenerateInputs(t *testing.T) {
	if _, err := KMeans(nil, 1, 5, 1); !errors.Is(err, ErrNoVectors) {
		t.Errorf("empty input: %v, want ErrNoVectors", err)
	}
	vectors, _ := clusteredData(10, 2, 4, 1)
	for _, k := range []int{0, -3, 11, 100} {
		if _, err := KMeans(vectors, k, 5, 1); !errors.Is(err, ErrBadK) {
			t.Errorf("k=%d over 10 vectors: %v, want ErrBadK", k, err)
		}
	}
	// k == n is the boundary: legal, every vector its own cluster.
	cl, err := KMeans(vectors, 10, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range cl.Assign {
		if seen[c] {
			t.Fatal("k == n left two vectors in one cluster")
		}
		seen[c] = true
	}
}

// TestKMeansEmptyClusterReseeding: duplicate-heavy data forces empty
// clusters mid-iteration (k exceeds the distinct values); the deterministic
// re-seed must keep every cluster populated, every centroid finite, and two
// runs identical.
func TestKMeansEmptyClusterReseeding(t *testing.T) {
	// 30 vectors but only 3 distinct values: any k > 3 empties clusters.
	var vectors [][]float32
	for i := 0; i < 30; i++ {
		v := float32(i % 3)
		vectors = append(vectors, []float32{v, v * 2})
	}
	for _, k := range []int{4, 7, 30} {
		a, err := KMeans(vectors, k, 15, 9)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		counts := make([]int, k)
		for i, c := range a.Assign {
			if c < 0 || c >= k {
				t.Fatalf("k=%d: vector %d assigned to cluster %d", k, i, c)
			}
			counts[c]++
		}
		for c, cent := range a.Centroids {
			for j, x := range cent {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					t.Fatalf("k=%d: centroid %d dim %d is %v", k, c, j, x)
				}
			}
		}
		b, err := KMeans(vectors, k, 15, 9)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Assign {
			if a.Assign[i] != b.Assign[i] {
				t.Fatalf("k=%d: runs diverged at vector %d", k, i)
			}
		}
		// The order must still be a permutation (ApplyOrder validates).
		if _, err := ApplyOrder(vectors, a.Order); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestStripeHeat: folding, tail stripe, and validation.
func TestStripeHeat(t *testing.T) {
	heat, err := StripeHeat([]int64{1, 2, 3, 4, 5, 6, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 15, 7}
	if len(heat) != len(want) {
		t.Fatalf("%d stripes, want %d", len(heat), len(want))
	}
	for i := range want {
		if heat[i] != want[i] {
			t.Fatalf("stripe %d heat %v, want %v", i, heat[i], want[i])
		}
	}
	if _, err := StripeHeat(nil, 3); !errors.Is(err, ErrNoVectors) {
		t.Errorf("empty: %v, want ErrNoVectors", err)
	}
	if _, err := StripeHeat([]int64{1}, 0); !errors.Is(err, ErrBadStripe) {
		t.Errorf("zero stripe: %v, want ErrBadStripe", err)
	}
}

// TestRankStripes: descending heat, ascending index on ties.
func TestRankStripes(t *testing.T) {
	got := RankStripes([]float64{3, 9, 3, 0, 9})
	want := []int{1, 4, 0, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %v, want %v", got, want)
		}
	}
}

// TestHottestWindow: max-sum window, low-start ties, validation.
func TestHottestWindow(t *testing.T) {
	heat := []float64{1, 5, 5, 1, 5, 5, 1}
	start, err := HottestWindow(heat, 2)
	if err != nil {
		t.Fatal(err)
	}
	if start != 1 {
		t.Fatalf("window start %d, want 1 (tie breaks low)", start)
	}
	// Every 3-window of this profile sums to 11: the tie breaks to start 0.
	start, err = HottestWindow(heat, 3)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("3-window start %d, want 0 (all windows tie)", start)
	}
	start, err = HottestWindow([]float64{0, 1, 9, 9, 1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if start != 2 {
		t.Fatalf("2-window start %d, want 2", start)
	}
	if _, err := HottestWindow(heat, 0); !errors.Is(err, ErrBadStripe) {
		t.Errorf("zero window: %v, want ErrBadStripe", err)
	}
	if _, err := HottestWindow(heat, 8); !errors.Is(err, ErrBadStripe) {
		t.Errorf("oversized window: %v, want ErrBadStripe", err)
	}
}
