package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// narrowSpecials are the values the narrow fuzzer plants in queries,
// features and weights.
var narrowSpecials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()),
	float32(math.Inf(1)), float32(math.Inf(-1)),
}

// narrowFuzzNet builds a Hadamard or subtract network whose first layer is
// an FC, one to three layers deep, from seed. With control false the first
// FC computes one to three outputs (any width when it is the only layer,
// which is cut to its score); with control true it has four outputs and
// feeds another layer, the narrowest network that is not narrow.
func narrowFuzzNet(seed int64, control bool) *Network {
	rng := rand.New(rand.NewSource(seed))
	combine := []CombineOp{CombineHadamard, CombineSubtract}[rng.Intn(2)]
	act := func() Activation { return []Activation{ActNone, ActReLU, ActSigmoid}[rng.Intn(3)] }
	fe := 1 + rng.Intn(70)
	depth := 1 + rng.Intn(3)
	out := 1 + rng.Intn(3)
	switch {
	case control:
		depth, out = max(depth, 2), 4
	case depth == 1:
		out = 1 + rng.Intn(8)
	}
	layers := []Layer{NewFC("fc1", fe, out, act())}
	width := out
	for d := 1; d < depth; d++ {
		next := 1 + rng.Intn(4)
		layers = append(layers, NewFC(fmt.Sprintf("fc%d", d+1), width, next, act()))
		width = next
	}
	n := MustNetwork(fmt.Sprintf("narrow-fuzz-%d", seed), tensor.Shape{fe}, combine, layers...)
	n.InitRandom(seed)
	return n
}

// sameScores fails unless got and want hold the same float32 bits at every
// index, any two NaNs counting as the same: NaN payloads are not part of
// the kernels' contract (tensor's TestGemmSpecialValues), NaN positions are.
func sameScores(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: score %d = %v (bits %x), want %v (bits %x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// FuzzNarrowBatchMatchesScorer: over random narrow networks — a Hadamard or
// subtract combine into a first FC of one to three computed outputs, one to
// three layers deep — 1–130 features and 1–3 queries, with signed zeros,
// NaN and infinities planted in the queries, the features and the weights,
// ScoreBatch (walked in capacity-sized chunks) and ScoreMulti, which pack the
// feature rows once per chunk and run GemmLanes per query, give every pair
// the bits per-pair Scorer.Score gives it. A control network whose first FC
// has four outputs must not be narrow and must agree the same way through
// the combine and Gemm.
func FuzzNarrowBatchMatchesScorer(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed*11), seed%4 == 3, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	}
	f.Add(int64(40), uint8(129), false, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, nrows uint8, control bool, plant []byte) {
		net := narrowFuzzNet(seed, control)
		if narrow := net.plan.lanesOut > 0; narrow == control {
			t.Fatalf("%s: narrow %v with control %v", net, narrow, control)
		}
		rng := rand.New(rand.NewSource(seed ^ int64(nrows)))
		fe := net.FeatureElems()
		nb, nq := 1+int(nrows)%130, 1+rng.Intn(3)
		qfvs, dfvs := randVecs(rng, nq, fe), randVecs(rng, nb, fe)
		fc := net.Layers[0].(*FC)
		// Each byte triple plants one special: in a query, a feature or a
		// first-layer weight, at a position drawn from the triple.
		if len(plant) > 60 {
			plant = plant[:60]
		}
		for i := 0; i+2 < len(plant); i += 3 {
			v := narrowSpecials[int(plant[i+2])%len(narrowSpecials)]
			switch at := int(plant[i+1]); plant[i] % 3 {
			case 0:
				qfvs[at%nq][at%fe] = v
			case 1:
				dfvs[(at*7)%nb][at%fe] = v
			case 2:
				fc.W[(at*13)%len(fc.W)] = v
			}
		}
		ref := net.Scorer()
		want := make([][]float32, nq)
		for q := range want {
			want[q] = make([]float32, nb)
			for b, d := range dfvs {
				want[q][b] = ref.Score(qfvs[q], d)
			}
		}
		max := 1 + rng.Intn(70)
		bs := net.BatchScorer(max)
		what := fmt.Sprintf("%s, %d features, %d queries, max %d", net, nb, nq, max)
		multi := make([][]float32, nq)
		for q := range multi {
			multi[q] = make([]float32, nb)
		}
		bs.ScoreMulti(multi, qfvs, dfvs)
		batch := make([]float32, nb)
		for q, qfv := range qfvs {
			sameScores(t, what+fmt.Sprintf(", ScoreMulti query %d", q), multi[q], want[q])
			for lo := 0; lo < nb; lo += max {
				hi := min(lo+max, nb)
				bs.ScoreBatch(batch[lo:hi], qfv, dfvs[lo:hi])
			}
			sameScores(t, what+fmt.Sprintf(", ScoreBatch query %d", q), batch, want[q])
		}
	})
}
