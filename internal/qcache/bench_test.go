package qcache

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// BenchmarkLookup measures Algorithm 1 over a full 1 024-entry cache — the
// §6.5 configuration at cache_zipf_remote's size — through each way a cache
// can score its slots: the scalar Scorer, the SetBatchScorer adapter and a
// Resident. The scorer itself is trivial, so ns/op is the sweep's own cost.
func BenchmarkLookup(b *testing.B) {
	score := func(a, q int) float64 {
		if a == q {
			return 1
		}
		return 0.2
	}
	for _, mode := range sweepModes {
		b.Run(mode.name, func(b *testing.B) {
			c := mode.build(1024, score)
			for i := 0; i < 1024; i++ {
				c.Insert(i, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(i%2048, 0.10)
			}
		})
	}
}

// qcnResident is a Resident over a QCN's nn.Resident, as the engine wires
// one: the keys are the QCN's logits, and Score is its activation clamped
// to [0, 1].
type qcnResident struct {
	*nn.Resident
	qcn *nn.Network
	raw []float32
}

func (r *qcnResident) Keys(keys []float64, q []float32) {
	r.raw = slices.Grow(r.raw[:0], len(keys))[:len(keys)]
	r.Logits(r.raw, q)
	for i, l := range r.raw {
		keys[i] = float64(l)
	}
}

func (r *qcnResident) Score(key float64) float64 {
	return min(max(float64(r.qcn.Activate(float32(key))), 0), 1)
}

// BenchmarkLookupQCN is one engine lookup: a full 1 024-entry cache of
// 200-dimension queries resident in a one-neuron sigmoid QCN's nn.Resident,
// looked up by queries half of which are cached. ns/op is the fused sweep
// plus the LRU walk; activations/op is how many logits the walk activates.
func BenchmarkLookupQCN(b *testing.B) {
	const entries, dims = 1024, 200
	qcn := nn.MustNetwork("qcn", tensor.Shape{dims}, nn.CombineHadamard, nn.NewFC("sum", dims, 1, nn.ActSigmoid))
	qcn.InitRandom(1)
	rng := rand.New(rand.NewSource(1))
	qs := make([][]float32, 2*entries)
	for i := range qs {
		qs[i] = make([]float32, dims)
		for j := range qs[i] {
			qs[i][j] = rng.Float32()*2 - 1
		}
	}
	c := NewResident[[]float32](entries, 1, &qcnResident{Resident: qcn.Resident(entries), qcn: qcn})
	for _, q := range qs[:entries] {
		c.Insert(q, nil)
	}
	before := c.Stats().Activations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(qs[i%len(qs)], 0.10)
	}
	b.ReportMetric(float64(c.Stats().Activations-before)/float64(b.N), "activations/op")
}

func BenchmarkInsertEvict(b *testing.B) {
	c := New[int](256, 0.95, func(a, q int) float64 { return 0 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(i, nil)
	}
}
