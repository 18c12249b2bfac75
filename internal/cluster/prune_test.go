package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/nn"
	"repro/internal/ssd"
	"repro/internal/tensor"
)

// pruneClusterOpts mirrors the core pruning suite's small device: 4 channels
// so 3-entry shard queues fill quickly, giving the bound tier real skips in
// test-sized shards.
func pruneClusterOpts(prune bool) core.Options {
	opts := core.DefaultOptions()
	cfg := ssd.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels:        4,
		ChipsPerChannel: 1,
		PlanesPerChip:   1,
		BlocksPerPlane:  64,
		PagesPerBlock:   32,
		PageBytes:       4 << 10,
	}
	opts.Device = cfg
	opts.Prune = prune
	opts.PruneStripeFeatures = 2
	return opts
}

// pruneClusterVectors builds a block-clustered database (one block per stripe
// row on the 4-channel device) so stripe envelopes are tight.
func pruneClusterVectors(features int, seed int64) [][]float32 {
	const dims, blockLen = 8, 8
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, features)
	centroid := make([]float32, dims)
	for i := range out {
		if i%blockLen == 0 {
			for d := range centroid {
				centroid[d] = rng.Float32()*2 - 1
			}
		}
		v := make([]float32, dims)
		for d := range v {
			v[d] = centroid[d] + (rng.Float32()*2-1)*0.01
		}
		out[i] = v
	}
	return out
}

// TestEnginesPruneAggregates: a pruned cluster answers bit-identically to a
// dense cluster of the same deployment, the Answer carries the summed shard
// skip accounting, and a batch agrees with one-at-a-time queries under
// pruning.
func TestEnginesPruneAggregates(t *testing.T) {
	const features, k = 262, 3
	net := nn.MustNetwork("cluster-prune-scn", tensor.Shape{8}, nn.CombineHadamard,
		nn.NewFC("fc1", 8, 4, nn.ActReLU),
		nn.NewFC("fc2", 4, 1, nn.ActNone))
	net.InitRandom(3)
	vectors := pruneClusterVectors(features, 31)

	build := func(prune bool) *Engines {
		e, err := NewEngines(2, pruneClusterOpts(prune))
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
	pruned := build(true)
	dense := build(false)

	qfvs := [][]float32{vectors[0], vectors[130], vectors[261]}
	pAns, err := pruned.Queries(qfvs, k)
	if err != nil {
		t.Fatal(err)
	}
	dAns, err := dense.Queries(qfvs, k)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, pAns, queryEach(t, build(true), qfvs, k))
	var skipped int64
	for i := range qfvs {
		if len(pAns[i].TopK) != len(dAns[i].TopK) {
			t.Fatalf("query %d: pruned %d entries, dense %d", i, len(pAns[i].TopK), len(dAns[i].TopK))
		}
		for j := range dAns[i].TopK {
			if pAns[i].TopK[j] != dAns[i].TopK[j] {
				t.Fatalf("query %d entry %d: pruned %+v != dense %+v", i, j, pAns[i].TopK[j], dAns[i].TopK[j])
			}
		}
		if dAns[i].Prune != (core.PruneStats{}) {
			t.Fatalf("query %d: dense cluster reported prune stats %+v", i, dAns[i].Prune)
		}
		if pAns[i].Prune.StripesChecked == 0 {
			t.Fatalf("query %d: pruned cluster checked no stripes", i)
		}
		skipped += pAns[i].Prune.FeaturesSkipped
	}
	if skipped == 0 {
		t.Fatal("pruned cluster never skipped a feature")
	}
}
