package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// qcnNeuronNet is the cache workload's QCN shape: a Hadamard front end and
// one sigmoid neuron over 200 dimensions — a GEMM of one column.
func qcnNeuronNet() *Network {
	return MustNetwork("qcn-neuron", tensor.Shape{200}, CombineHadamard, NewFC("sum", 200, 1, ActSigmoid))
}

// textQANet is TextQA's SCN (workload.newTextQA): the widest final FC of the
// Table 1 apps, 200 outputs of which the score is one.
func textQANet() *Network {
	return MustNetwork("TextQA", tensor.Shape{200}, CombineHadamard, NewFC("fc1", 200, 200, ActSigmoid))
}

// batchTestNets mirrors the Table 1 layer mix: a Hadamard FC net with
// sigmoid (TextQA-shaped), a concat FC stack (MIR-shaped), a subtract
// conv net with padding (ReId-shaped, exercising the im2col path), an
// element-wise layer mid-stack, and the two nets the fp32 executor's
// live-output slice matters most to, and a narrow two-layer subtract net.
// fc-sigmoid, the QCN, TextQA and narrow-subtract are narrow: their fp32
// batches take the lanes path.
func batchTestNets() []*Network {
	fcSig := MustNetwork("fc-sigmoid", tensor.Shape{96}, CombineHadamard,
		NewFC("fc1", 96, 96, ActSigmoid),
	)
	concat := MustNetwork("concat-stack", tensor.Shape{64}, CombineConcat,
		NewFC("fc1", 128, 48, ActReLU),
		NewFC("fc2", 48, 16, ActReLU),
		NewFC("fc3", 16, 2, ActNone),
	)
	conv := MustNetwork("conv-subtract", tensor.Shape{9, 7, 4}, CombineSubtract,
		NewConv("conv1", 9, 7, 4, 6, 3, 3, 1, 1, ActReLU),
		NewConv("conv2", 9, 7, 6, 4, 3, 3, 2, 1, ActReLU),
		NewFC("fc1", 5*4*4, 10, ActReLU),
		NewFC("fc2", 10, 1, ActNone),
	)
	ew := MustNetwork("ew-mid", tensor.Shape{32}, CombineHadamard,
		NewElementwise("scale", 32, EWScale),
		NewFC("fc", 32, 4, ActSigmoid),
	)
	narrow := MustNetwork("narrow-subtract", tensor.Shape{48}, CombineSubtract,
		NewFC("fc1", 48, 3, ActReLU),
		NewFC("fc2", 3, 1, ActSigmoid),
	)
	nets := []*Network{fcSig, concat, conv, ew, qcnNeuronNet(), textQANet(), narrow}
	for i, n := range nets {
		n.InitRandom(int64(i + 1))
	}
	return nets
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

func randVecs(rng *rand.Rand, count, n int) [][]float32 {
	vs := make([][]float32, count)
	for i := range vs {
		vs[i] = randVec(rng, n)
	}
	return vs
}

// scorers is one precision's three entry points over float32 operands, so a
// single table drives both: one is the per-feature oracle (Scorer for fp32,
// the one-row quantScorer for int8), batch and multi the batched paths of one
// reused scorer of capacity max. The int8 adapters quantize at the call.
type scorers struct {
	one   func(q, d []float32) float32
	batch func(scores, q []float32, ds [][]float32)
	multi func(scores [][]float32, qs, ds [][]float32)
}

var precisions = []struct {
	name string
	mk   func(net *Network, max int) scorers
}{
	{"fp32", func(net *Network, max int) scorers {
		ref, bs := net.Scorer(), net.BatchScorer(max)
		return scorers{ref.Score, bs.ScoreBatch, bs.ScoreMulti}
	}},
	{"int8", func(net *Network, max int) scorers {
		qn := net.Quantize()
		ref, bs := newQuantScorer(qn), qn.BatchScorer(max)
		prepare := func(qs [][]float32) []QuantQuery {
			out := make([]QuantQuery, len(qs))
			for i, q := range qs {
				out[i] = PrepareQuantQuery(q)
			}
			return out
		}
		return scorers{
			one: func(q, d []float32) float32 { return ref.Score(PrepareQuantQuery(q), QuantizeVector(d)) },
			batch: func(scores, q []float32, ds [][]float32) {
				quantScore(bs, scores, PrepareQuantQuery(q), QuantizeDB(ds))
			},
			multi: func(scores [][]float32, qs, ds [][]float32) {
				bs.ScoreMulti(scores, prepare(qs), QuantizeDB(ds))
			},
		}
	}},
}

// checkAgreement is one cell of the agreement matrix: in each precision,
// every pair of the nq×nb grid scores the same through the per-feature
// oracle, through ScoreMulti, and through ScoreBatch walked in max-sized
// chunks over the same reused scorer — bit-identical for FC stacks, and
// equal as float values for padded conv nets (only the sign of a zero may
// differ, which IEEE comparison treats as equal). Chunk boundaries carry no
// state and sharing one pass across queries changes no bits.
func checkAgreement(t *testing.T, net *Network, nq, nb, max int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	qfvs := randVecs(rng, nq, net.FeatureElems())
	pool := randVecs(rng, nb, net.FeatureElems())
	for _, p := range precisions {
		t.Run(p.name, func(t *testing.T) {
			s := p.mk(net, max)
			multi := make([][]float32, nq)
			for q := range multi {
				multi[q] = make([]float32, nb)
			}
			s.multi(multi, qfvs, pool)
			batch := make([]float32, nb)
			for q, qfv := range qfvs {
				for lo := 0; lo < nb; lo += max {
					hi := min(lo+max, nb)
					s.batch(batch[lo:hi], qfv, pool[lo:hi])
				}
				for b, dfv := range pool {
					want := s.one(qfv, dfv)
					if multi[q][b] != want || batch[b] != want {
						t.Fatalf("pair (%d,%d): multi %v (bits %x), batch %v (bits %x), per-feature %v (bits %x)",
							q, b, multi[q][b], math.Float32bits(multi[q][b]),
							batch[b], math.Float32bits(batch[b]), want, math.Float32bits(want))
					}
				}
			}
		})
	}
}

// TestScoreBatchMatchesScorer: single-query batches of 1, fewer than, one
// less than, exactly and more than the scorer capacity.
func TestScoreBatchMatchesScorer(t *testing.T) {
	for _, net := range batchTestNets() {
		for _, b := range []int{1, 7, 63, 64, 65} {
			t.Run(fmt.Sprintf("%s/B=%d", net.Name, b), func(t *testing.T) {
				checkAgreement(t, net, 1, b, 64, 11)
			})
		}
	}
}

// TestScoreMultiMatchesScorer: Q and B are chosen so the flattened grid
// straddles chunk boundaries (Q*B > max) and so chunks split mid-query (max
// not a multiple of B).
func TestScoreMultiMatchesScorer(t *testing.T) {
	for _, net := range batchTestNets() {
		for _, tc := range []struct{ q, b, max int }{
			{1, 1, 64},
			{1, 13, 64},
			{5, 13, 64}, // 65 pairs > 64 rows: chunk splits mid-grid
			{5, 7, 4},   // max smaller than B: chunks split mid-query
			{3, 13, 5},  // max not a divisor of B
		} {
			t.Run(fmt.Sprintf("%s/Q=%d/B=%d/max=%d", net.Name, tc.q, tc.b, tc.max), func(t *testing.T) {
				checkAgreement(t, net, tc.q, tc.b, tc.max, 23)
			})
		}
	}
}

// TestScoreBatchChunksMatch: one 64-feature pool through ragged 7-row chunks
// of one reused scorer.
func TestScoreBatchChunksMatch(t *testing.T) { checkAgreement(t, batchTestNets()[1], 1, 64, 7, 5) }

// TestScoreMultiMatchesScoreBatch: a grid that fits several whole queries
// per chunk, on the concat stack (rows are query-dependent halves).
func TestScoreMultiMatchesScoreBatch(t *testing.T) {
	checkAgreement(t, batchTestNets()[1], 4, 9, 16, 29)
}

// TestQuantScorerBatchIdentity: the same matrix cell over a two-FC net under
// every combine op, with capacities that force ragged tails — the int8
// fillRow has its own arithmetic per combine.
func TestQuantScorerBatchIdentity(t *testing.T) {
	for _, combine := range []CombineOp{CombineHadamard, CombineSubtract, CombineConcat} {
		net := quantTestNet(t, combine, 24, 3)
		for _, max := range []int{5, 11} {
			t.Run(fmt.Sprintf("%v/max=%d", combine, max), func(t *testing.T) {
				checkAgreement(t, net, 3, 37, max, 9)
			})
		}
	}
}

// misuse is the validation table of both batched entry points: capacity and
// shape misuse panics rather than corrupting scratch. Only fp32 has a
// single-query batch call with a capacity to exceed; int8's runs ScoreMulti,
// which walks any grid in capacity-sized chunks.
var misuse = []struct {
	name     string
	multi    bool
	fp32Only bool
	call     func(mk func(max int) scorers, good []float32)
}{
	{"zero capacity", false, false, func(mk func(int) scorers, good []float32) { mk(0) }},
	{"over capacity", false, true, func(mk func(int) scorers, good []float32) {
		mk(2).batch(make([]float32, 3), good, [][]float32{good, good, good})
	}},
	{"short scores", false, false, func(mk func(int) scorers, good []float32) {
		mk(2).batch(make([]float32, 1), good, [][]float32{good, good})
	}},
	{"bad qfv", false, false, func(mk func(int) scorers, good []float32) {
		mk(2).batch(make([]float32, 1), good[:3], [][]float32{good})
	}},
	{"bad dfv", false, false, func(mk func(int) scorers, good []float32) {
		mk(2).batch(make([]float32, 1), good, [][]float32{good[:3]})
	}},
	{"short score rows", true, false, func(mk func(int) scorers, good []float32) {
		mk(8).multi(nil, [][]float32{good}, [][]float32{good})
	}},
	{"short score row", true, false, func(mk func(int) scorers, good []float32) {
		mk(8).multi([][]float32{{}}, [][]float32{good}, [][]float32{good})
	}},
	{"bad qfv", true, false, func(mk func(int) scorers, good []float32) {
		mk(8).multi([][]float32{make([]float32, 1)}, [][]float32{good[1:]}, [][]float32{good})
	}},
	{"bad dfv", true, false, func(mk func(int) scorers, good []float32) {
		mk(8).multi([][]float32{make([]float32, 1)}, [][]float32{good}, [][]float32{append(good, 0)})
	}},
}

func checkMisuse(t *testing.T, multi bool) {
	net := batchTestNets()[0]
	good := make([]float32, net.FeatureElems())
	for _, tc := range misuse {
		if tc.multi != multi {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range precisions {
				if tc.fp32Only && p.name != "fp32" {
					continue
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: no panic", p.name)
						}
					}()
					tc.call(func(max int) scorers { return p.mk(net, max) }, good)
				}()
			}
		})
	}
	// Empty batches and grids are a no-op, not an error.
	for _, p := range precisions {
		s := p.mk(net, 2)
		s.batch(nil, good, nil)
		s.multi(nil, nil, [][]float32{good})
		s.multi(nil, [][]float32{good}, nil)
	}
}

func TestScoreBatchValidation(t *testing.T) { checkMisuse(t, false) }

func TestScoreMultiValidation(t *testing.T) { checkMisuse(t, true) }

// TestScoreBatchAllocFree: steady-state ScoreBatch and ScoreMulti calls
// allocate nothing in either precision, on the narrow lanes path as on the
// combine path, nor does a Resident's Logits or a Put into a slot
// it has room for, nor Network.Activate — the property that keeps the
// scan's and the cache sweep's hot loops off the garbage collector.
func TestScoreBatchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	narrow := 0
	for _, net := range batchTestNets() {
		if net.plan.lanesOut > 0 {
			narrow++
		}
		qfvs := randVecs(rng, 3, net.FeatureElems())
		pool := randVecs(rng, 32, net.FeatureElems())
		qqs := []QuantQuery{PrepareQuantQuery(qfvs[0]), PrepareQuantQuery(qfvs[1]), PrepareQuantQuery(qfvs[2])}
		qpool := QuantizeDB(pool)
		bs, qbs := net.BatchScorer(32), net.Quantize().BatchScorer(32)
		res := net.Resident(100)
		grid := [][]float32{make([]float32, 32), make([]float32, 32), make([]float32, 32)}
		all := make([]float32, 100)
		for name, call := range map[string]func(){
			"ScoreBatch":       func() { bs.ScoreBatch(grid[0], qfvs[0], pool) },
			"ScoreMulti":       func() { bs.ScoreMulti(grid, qfvs, pool) },
			"int8 ScoreMulti":  func() { qbs.ScoreMulti(grid, qqs, qpool) },
			"Resident.Put":     func() { res.Put(99, pool[0]) },
			"Resident.Logits":  func() { res.Logits(all, qfvs[0]) },
			"Network.Activate": func() { all[0] = net.Activate(all[1]) },
		} {
			call() // warm up
			if n := testing.AllocsPerRun(10, call); n != 0 {
				t.Errorf("%s: %s allocates %v times per call", net.Name, name, n)
			}
		}
	}
	if narrow == 0 || narrow == len(batchTestNets()) {
		t.Fatalf("%d of the test nets are narrow: both paths must be covered", narrow)
	}
}
