package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func digest(vs ...[][]float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, set := range vs {
		for _, v := range set {
			for _, x := range v {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// everything draws every kind of input the benchmark uses from one seed.
func everything(seed int64) uint64 {
	uni := Uniform(Stream(seed, "db"), 64, 16)
	clustered, centroids := BlockClustered(Stream(seed, "clustered"), 96, 16, 32, 0.05)
	rng := Stream(seed, "stream")
	z := NewZipf(len(centroids), 0.8)
	var queries [][]float32
	for i := 0; i < 32; i++ {
		queries = append(queries, Jitter(rng, centroids[z.Next(rng)], 0.02))
	}
	return digest(uni, clustered, centroids, queries)
}

// Golden: the same seed gives identical bytes, on every run and every
// machine; a change to a generator changes what the benchmark measures and
// must show up here.
func TestSameSeedSameBytes(t *testing.T) {
	if a, b := everything(1), everything(1); a != b {
		t.Fatalf("seed 1 gave %016x then %016x", a, b)
	}
	if everything(1) == everything(2) {
		t.Error("seeds 1 and 2 gave the same inputs")
	}
	const golden = 0x58ad341ba652bf56
	if got := everything(1); got != golden {
		t.Errorf("seed 1 digest %#016x, golden %#016x", got, uint64(golden))
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	a, b := Stream(1, "a").Int63(), Stream(1, "b").Int63()
	if a == b {
		t.Error("two named streams of one seed coincide")
	}
	if Stream(1, "a").Int63() != a {
		t.Error("a named stream is not a function of (seed, name)")
	}
}

func TestBlockClusteredStaysNearCentroids(t *testing.T) {
	vecs, cents := BlockClustered(Stream(3, "x"), 100, 8, 32, 0.1)
	if len(vecs) != 100 || len(cents) != 4 {
		t.Fatalf("%d vectors, %d centroids, want 100 and 4", len(vecs), len(cents))
	}
	for i, v := range vecs {
		for j, x := range v {
			if d := math.Abs(float64(x - cents[i/32][j])); d > 0.1 {
				t.Fatalf("vector %d strays %v from its block centroid", i, d)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	rng := Stream(5, "z")
	z := NewZipf(100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.Next(rng)]++
	}
	// Rank 0 has weight 1/H(100) = 0.193; rank 9 a tenth of that.
	if f := float64(counts[0]) / 20000; f < 0.17 || f > 0.22 {
		t.Errorf("rank 0 drawn with frequency %v, want about 0.193", f)
	}
	if counts[0] < 5*counts[9] {
		t.Errorf("rank 0 drawn %d times, rank 9 %d: not 1/rank", counts[0], counts[9])
	}
}

func TestScaledDotQCNSeparatesRepeatsFromStrangers(t *testing.T) {
	qcn, err := ScaledDotQCN(200, 8)
	if err != nil {
		t.Fatal(err)
	}
	vs := Uniform(Stream(9, "q"), 2, 200)
	if self := qcn.Score(vs[0], vs[0]); self < 0.85 {
		t.Errorf("a repeat scores %v, want about 0.93", self)
	}
	if other := qcn.Score(vs[0], vs[1]); other > 0.7 {
		t.Errorf("an unrelated pair scores %v, want about 0.5", other)
	}
}
