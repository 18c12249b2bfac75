package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// quantClusterOpts: the pruning suite's small device with the quantized
// two-pass path enabled on every shard engine.
func quantClusterOpts(quantized bool, margin int) core.Options {
	opts := pruneClusterOpts(false)
	opts.Quantized = quantized
	opts.RerankMargin = margin
	return opts
}

// TestEnginesQuantTwoPassAggregates: a quantized two-pass cluster answers
// bit-identically to an fp32 cluster of the same deployment, and a batch
// agrees with one-at-a-time queries — each shard runs its own int8
// candidate scan and fp32 rerank, and the global merge sees exact scores.
func TestEnginesQuantTwoPassAggregates(t *testing.T) {
	const features, k = 262, 3
	net := nn.MustNetwork("cluster-quant-scn", tensor.Shape{8}, nn.CombineHadamard,
		nn.NewFC("fc1", 8, 4, nn.ActReLU),
		nn.NewFC("fc2", 4, 1, nn.ActNone))
	net.InitRandom(3)
	vectors := pruneClusterVectors(features, 37)

	build := func(quantized bool) *Engines {
		e, err := NewEngines(2, quantClusterOpts(quantized, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.WriteDB(vectors); err != nil {
			t.Fatal(err)
		}
		if err := e.LoadModel(net); err != nil {
			t.Fatal(err)
		}
		return e
	}
	quant := build(true)
	dense := build(false)

	qfvs := [][]float32{vectors[0], vectors[130], vectors[261]}
	qAns, err := quant.Queries(qfvs, k)
	if err != nil {
		t.Fatal(err)
	}
	dAns, err := dense.Queries(qfvs, k)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, qAns, queryEach(t, build(true), qfvs, k))
	for i := range qfvs {
		if len(qAns[i].TopK) != len(dAns[i].TopK) {
			t.Fatalf("query %d: quant %d entries, dense %d", i, len(qAns[i].TopK), len(dAns[i].TopK))
		}
		for j := range dAns[i].TopK {
			if qAns[i].TopK[j] != dAns[i].TopK[j] {
				t.Fatalf("query %d entry %d: quant %+v != dense %+v", i, j, qAns[i].TopK[j], dAns[i].TopK[j])
			}
		}
	}
}
