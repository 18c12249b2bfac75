package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func benchNetwork() *Network {
	n := MustNetwork("bench", tensor.Shape{512}, CombineHadamard,
		NewFC("fc1", 512, 512, ActReLU),
		NewFC("fc2", 512, 256, ActReLU),
		NewFC("fc3", 256, 2, ActNone),
	)
	n.InitRandom(1)
	return n
}

// BenchmarkSCNForward measures one similarity comparison — the numeric path
// the examples exercise per database feature.
func BenchmarkSCNForward(b *testing.B) {
	n := benchNetwork()
	q := make([]float32, 512)
	d := make([]float32, 512)
	for i := range q {
		q[i] = float32(i%7) / 7
		d[i] = float32(i%5) / 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Score(q, d)
	}
}

// BenchmarkScoreBatch pits the per-feature Scorer against the batched GEMM
// path on the TIR geometry (1.5 MB of FC weights — the weight-streaming
// regime the batch amortizes). ns/op is per 64-feature batch in both modes.
func BenchmarkScoreBatch(b *testing.B) {
	n := benchNetwork()
	q := make([]float32, 512)
	pool := make([][]float32, 64)
	for i := range q {
		q[i] = float32(i%7) / 7
	}
	for p := range pool {
		pool[p] = make([]float32, 512)
		for i := range pool[p] {
			pool[p][i] = float32((i+p)%5) / 5
		}
	}
	b.Run("scorer", func(b *testing.B) {
		sc := n.Scorer()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range pool {
				sc.Score(q, d)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		bs := n.BatchScorer(64)
		scores := make([]float32, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs.ScoreBatch(scores, q, pool)
		}
	})
}

func BenchmarkModelMarshal(b *testing.B) {
	n := benchNetwork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelUnmarshal(b *testing.B) {
	data, err := Marshal(benchNetwork())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScoreChunks scores q against pool in 64-row ScoreBatch chunks, the way
// the cache sweep and the scan gather do.
func benchScoreChunks(b *testing.B, n *Network, entries int) {
	n.InitRandom(1)
	rng := rand.New(rand.NewSource(1))
	q := randVec(rng, n.FeatureElems())
	pool := randVecs(rng, entries, n.FeatureElems())
	bs := n.BatchScorer(64)
	scores := make([]float32, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < entries; lo += 64 {
			hi := min(lo+64, entries)
			bs.ScoreBatch(scores[:hi-lo], q, pool[lo:hi])
		}
	}
}

// BenchmarkQCNSweep is one query-cache lookup's QCN work: 1 024 cached
// 200-dimension queries through a one-neuron QCN — the narrow (n = 1) GEMM
// and the vectorised Hadamard fill. ns/op is per sweep.
func BenchmarkQCNSweep(b *testing.B) { benchScoreChunks(b, qcnNeuronNet(), 1024) }

// BenchmarkResidentSweep is BenchmarkQCNSweep's sweep through a Resident:
// the 1 024 queries resident in the lanes layout, scored by one Logits —
// the fused combine-and-dot lanes kernel, no gather and no pack — then
// Activate on every score. ns/op is per sweep.
func BenchmarkResidentSweep(b *testing.B) {
	benchResident(b, func(r *Resident, dst, qfv []float32) {
		r.Logits(dst, qfv)
		for i, l := range dst {
			dst[i] = r.exec.net.Activate(l)
		}
	})
}

// BenchmarkResidentLogits is the sweep as the query cache runs it: one
// Logits, BenchmarkResidentSweep without the 1 024 sigmoids, which the cache
// applies only to the logits that can win. ns/op is per sweep.
func BenchmarkResidentLogits(b *testing.B) { benchResident(b, (*Resident).Logits) }

func benchResident(b *testing.B, sweep func(r *Resident, dst, qfv []float32)) {
	n := qcnNeuronNet()
	n.InitRandom(1)
	rng := rand.New(rand.NewSource(1))
	q := randVec(rng, n.FeatureElems())
	r := n.Resident(1024)
	for s, v := range randVecs(rng, 1024, n.FeatureElems()) {
		r.Put(s, v)
	}
	dst := make([]float32, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(r, dst, q)
	}
}

// BenchmarkScoreBatchTextQA is one miss scan of the cache workload: 256
// features through TextQA's SCN, whose 200×200 final FC the executor runs for
// its score column alone.
func BenchmarkScoreBatchTextQA(b *testing.B) { benchScoreChunks(b, textQANet(), 256) }
