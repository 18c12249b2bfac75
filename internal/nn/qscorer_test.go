package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// quantScorer is the per-feature int8 oracle: a one-row QuantBatchScorer, so
// its scores are the batched path's by construction.
type quantScorer struct {
	bs    *QuantBatchScorer
	score [1]float32
}

func newQuantScorer(qn *QuantNetwork) *quantScorer { return &quantScorer{bs: qn.BatchScorer(1)} }

// Score scores one prepared query against one quantized feature vector.
func (s *quantScorer) Score(q QuantQuery, d QuantizedVector) float32 {
	quantScore(s.bs, s.score[:], q, []QuantizedVector{d})
	return s.score[0]
}

// quantScore scores one prepared query against quantized features, writing
// scores[i] for dfvs[i]: ScoreMulti with a single query.
func quantScore(bs *QuantBatchScorer, scores []float32, q QuantQuery, dfvs []QuantizedVector) {
	bs.ScoreMulti([][]float32{scores}, []QuantQuery{q}, dfvs)
}

func quantTestNet(t *testing.T, combine CombineOp, fe int, seed int64) *Network {
	t.Helper()
	in := fe
	if combine == CombineConcat {
		in = 2 * fe
	}
	net, err := NewNetwork("qtest", tensor.Shape{fe}, combine,
		NewFC("fc1", in, 16, ActReLU),
		NewFC("fc2", 16, 1, ActSigmoid),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitRandom(seed)
	return net
}

// TestQuantScorerTracksFloat: quantized scores should approximate the float
// scorer's to within a few percent for well-conditioned random inputs — the
// recall guarantee of the approximate mode rides on this.
func TestQuantScorerTracksFloat(t *testing.T) {
	const fe = 32
	net := quantTestNet(t, CombineHadamard, fe, 7)
	qn := net.Quantize()
	sc := newQuantScorer(qn)
	rng := rand.New(rand.NewSource(21))
	var maxErr float64
	for trial := 0; trial < 50; trial++ {
		q := randVec(rng, fe)
		d := randVec(rng, fe)
		exact := float64(net.Score(q, d))
		quant := float64(sc.Score(PrepareQuantQuery(q), QuantizeVector(d)))
		if err := math.Abs(exact - quant); err > maxErr {
			maxErr = err
		}
	}
	if maxErr > 0.05 {
		t.Fatalf("max |float - int8| score drift %v exceeds 0.05 (sigmoid output scale)", maxErr)
	}
}

// TestQuantScorerZeroVector: zero features must score without NaN (zero
// vectors quantize to scale 1, all-zero data).
func TestQuantScorerZeroVector(t *testing.T) {
	const fe = 16
	net := quantTestNet(t, CombineHadamard, fe, 1)
	sc := newQuantScorer(net.Quantize())
	got := sc.Score(PrepareQuantQuery(make([]float32, fe)), QuantizeVector(make([]float32, fe)))
	if math.IsNaN(float64(got)) {
		t.Fatalf("zero-vector quantized score is NaN")
	}
}
