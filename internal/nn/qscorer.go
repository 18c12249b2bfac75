package nn

// Quantized scoring — the execution half of the §7 precision extension.
// A QuantNetwork holds an int8 image of every FC layer's weights (per-output-
// row max-abs scales); QuantBatchScorer is BatchScorer's int8 counterpart:
// the combined activation matrix is built in the dequantized domain, each
// row is quantized once per FC layer (per-row max-abs activation scale), and
// the layer runs as one tensor.GemmInt8 with widened int32 accumulators (the
// executor's int8 FC step, batch.go). Conv and element-wise layers keep their
// float32 row kernels, so arbitrary networks still execute; the FC families
// that dominate the Table 1 SCNs get the int8 arithmetic.
//
// Determinism across scan paths: every score depends only on its own row, so
// batched, per-feature, serial, and multi-query quantized scans produce
// bit-identical scores for the same (query, feature) pair, the property the
// core engine's equivalence suite locks down.

// quantFC is the int8 image of one FC layer.
type quantFC struct {
	fc     *FC
	w      []int8    // Out×In row-major int8 weights
	scales []float32 // per-output-row weight scales
}

// QuantNetwork pairs a Network with int8 images of its FC layers. It is
// immutable after construction and safe for concurrent use; per-worker
// scratch lives in QuantBatchScorer.
type QuantNetwork struct {
	net *Network
	fcs []*quantFC // index-aligned with net.Layers; nil for non-FC layers
}

// Quantize builds the int8 weight images for every FC layer. The float
// network is retained (and referenced, not copied) for its conv and
// element-wise layers and its plan; it must not be mutated afterwards.
func (n *Network) Quantize() *QuantNetwork {
	qn := &QuantNetwork{net: n, fcs: make([]*quantFC, len(n.Layers))}
	for i, l := range n.Layers {
		fc, ok := l.(*FC)
		if !ok {
			continue
		}
		q := &quantFC{fc: fc, w: make([]int8, len(fc.W)), scales: make([]float32, fc.Out)}
		for r := 0; r < fc.Out; r++ {
			q.scales[r] = quantizeInto(q.w[r*fc.In:(r+1)*fc.In], fc.W[r*fc.In:(r+1)*fc.In])
		}
		qn.fcs[i] = q
	}
	return qn
}

// QuantQuery is a query prepared for quantized scanning: the int8 image and
// its dequantized values. Preparing once per scan avoids re-quantizing the
// query for every feature (the same O(Q·D) pathology ScoreDrift had).
type QuantQuery struct {
	Q   QuantizedVector
	Deq []float32
}

// PrepareQuantQuery quantizes a query feature vector once for a whole scan.
func PrepareQuantQuery(qfv []float32) QuantQuery {
	q := QuantizeVector(qfv)
	return QuantQuery{Q: q, Deq: q.Dequantize()}
}

// QuantBatchScorer is the int8 BatchScorer: the same executor (batching
// discipline, allocation-free steady state, NOT safe for concurrent use —
// per-worker state over a shared immutable QuantNetwork) running the int8 FC
// step, with rows filled from int8 operands in the dequantized domain.
type QuantBatchScorer struct{ executor }

// BatchScorer returns a quantized batched scorer processing up to maxBatch
// features per call.
func (qn *QuantNetwork) BatchScorer(maxBatch int) *QuantBatchScorer {
	return &QuantBatchScorer{newExecutor(qn.net, qn.fcs, maxBatch, true)}
}

// ScoreMulti scores every prepared query against every quantized feature,
// writing scores[q][b]. Mirrors BatchScorer.ScoreMulti.
func (s *QuantBatchScorer) ScoreMulti(scores [][]float32, qs []QuantQuery, dfvs []QuantizedVector) {
	nq, nb := len(qs), len(dfvs)
	if nq == 0 || nb == 0 {
		return
	}
	for q := range qs {
		s.checkLen("qfv", q, len(qs[q].Deq))
	}
	for b := range dfvs {
		s.checkLen("dfv", b, len(dfvs[b].Data))
	}
	ce := s.net.plan.combElems
	s.run(scores, nq, nb, func(base, rows int) {
		for r := 0; r < rows; r++ {
			f := base + r
			s.fillRow(s.comb[r*ce:(r+1)*ce], qs[f/nb].Deq, dfvs[f%nb])
		}
	})
}

// fillRow writes one combined-activation row in the dequantized domain: both
// operands are the int8 reconstructions, so the combine arithmetic matches
// what a float scorer would compute over dequantized vectors. Every product
// is wrapped in float32() so it rounds before the next operation: without it
// gc may fuse the subtract's multiply into an FMA on arm64 / GOAMD64=v3 and
// the int8 scan paths would stop agreeing across builds.
func (s *QuantBatchScorer) fillRow(row, deq []float32, d QuantizedVector) {
	fe := len(deq)
	switch s.net.Combine {
	case CombineHadamard:
		for i := 0; i < fe; i++ {
			row[i] = deq[i] * float32(d.Data[i]) * d.Scale
		}
	case CombineSubtract:
		for i := 0; i < fe; i++ {
			row[i] = deq[i] - float32(float32(d.Data[i])*d.Scale)
		}
	case CombineConcat:
		copy(row[:fe], deq)
		for i := 0; i < fe; i++ {
			row[fe+i] = float32(d.Data[i]) * d.Scale
		}
	}
}
