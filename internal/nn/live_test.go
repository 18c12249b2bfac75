package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// scoreGrid scores every (query, feature) pair through one reused fp32
// BatchScorer both ways: ScoreMulti over the whole grid and ScoreBatch in
// capacity-sized chunks. The two come back as one slice each, query-major.
func scoreGrid(bs *BatchScorer, qfvs, pool [][]float32) (multi, batch []float32) {
	nb := len(pool)
	rows := make([][]float32, len(qfvs))
	multi = make([]float32, len(qfvs)*nb)
	batch = make([]float32, len(qfvs)*nb)
	for q := range rows {
		rows[q] = multi[q*nb : (q+1)*nb]
	}
	bs.ScoreMulti(rows, qfvs, pool)
	for q, qfv := range qfvs {
		for lo := 0; lo < nb; lo += bs.max {
			hi := min(lo+bs.max, nb)
			bs.ScoreBatch(batch[q*nb+lo:q*nb+hi], qfv, pool[lo:hi])
		}
	}
	return multi, batch
}

func sameScoreBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: score %d = %v (bits %x), want %v (bits %x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestDeadOutputsUnread: the fp32 executor takes nothing of a final FC but
// the score row. With rows 1…Out-1 of its W and B turned to NaN every
// ScoreBatch and ScoreMulti score keeps its bits (nothing of a dead row is
// mixed into a score, the staging tile's padded columns included), and with
// those rows cut off the slices altogether the scores are still there — a
// whole-layer product would not get past Gemm's length check.
func TestDeadOutputsUnread(t *testing.T) {
	nan := float32(math.NaN())
	for _, net := range batchTestNets() {
		fc, ok := net.Layers[len(net.Layers)-1].(*FC)
		if !ok || fc.Out < 2 {
			continue
		}
		t.Run(net.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			qfvs := randVecs(rng, 3, net.FeatureElems())
			pool := randVecs(rng, 70, net.FeatureElems())
			bs := net.BatchScorer(64)
			wantMulti, wantBatch := scoreGrid(bs, qfvs, pool)
			for i := fc.In; i < len(fc.W); i++ {
				fc.W[i] = nan
			}
			for i := 1; i < len(fc.B); i++ {
				fc.B[i] = nan
			}
			gotMulti, gotBatch := scoreGrid(bs, qfvs, pool)
			sameScoreBits(t, "poisoned ScoreMulti", gotMulti, wantMulti)
			sameScoreBits(t, "poisoned ScoreBatch", gotBatch, wantBatch)
			fc.W, fc.B = fc.W[:fc.In:fc.In], fc.B[:1:1]
			gotMulti, gotBatch = scoreGrid(bs, qfvs, pool)
			sameScoreBits(t, "truncated ScoreMulti", gotMulti, wantMulti)
			sameScoreBits(t, "truncated ScoreBatch", gotBatch, wantBatch)
		})
	}
}

// TestExecutorSeesRewrittenWeights: a BatchScorer or Resident built before
// InitRandom scores with the weights of the latest InitRandom — the
// live-output slice and the lanes kernel's first layer are views of W and B
// taken at each call, not copies made at construction (every workload builds
// its scorers' network first and seeds it afterwards). What a Resident keeps
// is its vectors, stored before either seeding.
func TestExecutorSeesRewrittenWeights(t *testing.T) {
	for _, mk := range []func() *Network{qcnNeuronNet, textQANet} {
		net := mk()
		t.Run(net.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			qfvs := randVecs(rng, 2, net.FeatureElems())
			pool := randVecs(rng, 65, net.FeatureElems())
			bs := net.BatchScorer(64)
			res := net.Resident(len(pool))
			for s, dfv := range pool {
				res.Put(s, dfv)
			}
			for _, seed := range []int64{5, 6} {
				net.InitRandom(seed)
				fresh := mk()
				fresh.InitRandom(seed)
				ref := fresh.Scorer()
				want := make([]float32, 0, len(qfvs)*len(pool))
				for _, qfv := range qfvs {
					for _, dfv := range pool {
						want = append(want, ref.Score(qfv, dfv))
					}
				}
				multi, batch := scoreGrid(bs, qfvs, pool)
				sameScoreBits(t, "ScoreMulti", multi, want)
				sameScoreBits(t, "ScoreBatch", batch, want)
				all := make([]float32, len(pool))
				for q, qfv := range qfvs {
					res.Logits(all, qfv)
					for i, l := range all {
						all[i] = net.Activate(l)
					}
					sameScoreBits(t, "Activate∘Resident.Logits", all, want[q*len(pool):(q+1)*len(pool)])
				}
			}
		})
	}
}

// TestLayerPlanIgnoresLiveOutputs: what the timing and energy models read of
// TextQA is the whole 200×200 layer — the simulated systolic array has no
// column mask, so the live-output slice must never reach LayerPlan,
// FLOPsPerComparison or WeightBytes. The figures are Table 1's.
func TestLayerPlanIgnoresLiveOutputs(t *testing.T) {
	net := textQANet()
	if got := net.FLOPsPerComparison(); got != 200+2*200*200 {
		t.Errorf("FLOPsPerComparison = %d, want %d", got, 200+2*200*200)
	}
	if got := net.WeightBytes(); got != 4*(200*200+200) {
		t.Errorf("WeightBytes = %d, want %d", got, 4*(200*200+200))
	}
	want := []LayerDims{
		{Name: "combine-hadamard", Kind: KindElementwise, In: tensor.Shape{200}, Out: tensor.Shape{200}, FLOPs: 200},
		{Name: "fc1", Kind: KindFC, In: tensor.Shape{200}, Out: tensor.Shape{200}, FLOPs: 2 * 200 * 200, Weights: 200*200 + 200},
	}
	if got := net.LayerPlan(); !reflect.DeepEqual(got, want) {
		t.Errorf("LayerPlan = %+v, want %+v", got, want)
	}
}
