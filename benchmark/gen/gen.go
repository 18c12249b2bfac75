// Package gen holds the benchmark's own seeded input generators: feature
// databases, query streams and the query-comparison network of the cache
// workload. The benchmark seed is the only source of randomness, and the
// engine under test sees nothing but what these functions return.
//
// The package deliberately does not use the vector and trace generators of
// repro/internal/workload: a change there must not silently change what the
// benchmark measures.
package gen

import (
	"math"
	"math/rand"
	"sort"

	deepstore "repro"
)

// Stream derives the independent random stream a named input draws from, so
// adding an input to a workload does not shift the others.
func Stream(seed int64, name string) *rand.Rand {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// Vector fills v with uniform values in [-1, 1).
func Vector(rng *rand.Rand, v []float32) {
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
}

// Uniform returns n vectors of dims uniform values in [-1, 1).
func Uniform(rng *rand.Rand, n, dims int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, dims)
		Vector(rng, out[i])
	}
	return out
}

// Jitter returns base with uniform noise of the given amplitude added to
// every element; amplitude 0 returns a plain copy.
func Jitter(rng *rand.Rand, base []float32, amplitude float32) []float32 {
	out := make([]float32, len(base))
	for i, b := range base {
		out[i] = b
		if amplitude != 0 {
			out[i] += amplitude * (rng.Float32()*2 - 1)
		}
	}
	return out
}

// BlockClustered returns n vectors in blocks of block consecutive features:
// every block has one uniform centroid, and each of its features is the
// centroid plus noise. With block = channels x stripe features, each channel
// stripe of the striped layout holds near-identical vectors, which is the
// data shape the pruning tier's stripe bounds can exploit. The centroids are
// returned so that query streams can aim at them.
func BlockClustered(rng *rand.Rand, n, dims, block int, noise float32) (vectors, centroids [][]float32) {
	vectors = make([][]float32, n)
	for i := range vectors {
		if i%block == 0 {
			c := make([]float32, dims)
			Vector(rng, c)
			centroids = append(centroids, c)
		}
		vectors[i] = Jitter(rng, centroids[len(centroids)-1], noise)
	}
	return vectors, centroids
}

// Zipf draws ranks in [0, n) with probability proportional to 1/(rank+1)^alpha.
// Unlike math/rand.Zipf it accepts alpha <= 1.
type Zipf struct {
	cdf []float64
}

// NewZipf builds the sampler's cumulative table.
func NewZipf(n int, alpha float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Next draws one rank.
func (z *Zipf) Next(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// ScaledDotQCN builds the cache workload's query-comparison network through
// the facade constructors: a Hadamard front end and one FC neuron with every
// weight scale/dims and a sigmoid. For uniform vectors on [-1, 1) a repeat's
// self-product sums to about dims/3 and an unrelated pair's to about 0, so
// with scale 8 a repeat scores about 0.93 and an unrelated pair about 0.5.
func ScaledDotQCN(dims int, scale float32) (*deepstore.Network, error) {
	fc := deepstore.NewFC("sum", dims, 1, deepstore.ActSigmoid)
	for i := range fc.W {
		fc.W[i] = scale / float32(dims)
	}
	return deepstore.NewNetwork("bench-qcn", []int{dims}, deepstore.CombineHadamard, fc)
}
