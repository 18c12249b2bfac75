package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// executor is the one batched forward pass behind BatchScorer and
// QuantBatchScorer: it packs up to max (query, feature) pairs into one
// activation matrix (one row per pair) and pushes the whole stack forward as
// matrix-matrix products, so every FC layer runs as one cache-blocked
// tensor.Gemm instead of max memory-latency-bound Gemv calls, amortizing the
// weight traffic — the dominant cost of the §2–§3 scan — across the batch.
// Convolutions lower to im2col + Gemm per row (a single sample's patch matrix
// is already matrix-shaped work). The two precisions differ only in who
// fills the combined rows and in the FC step: where fcs holds an int8 image
// of a layer, its rows are quantized (per-row max-abs activation scale) and
// run as one tensor.GemmInt8 with widened int32 accumulators.
//
// All scratch is sized from the network's plan at construction and reused, so
// steady-state scoring is allocation-free. An executor is NOT safe for
// concurrent use — it is per-worker state; the Network (and the int8 images)
// stay immutable and shared.
//
// Determinism: row b of every activation matrix goes through exactly the
// arithmetic Scorer.Score applies to its pair, in the same order (Gemm
// accumulates each output strictly in Gemv's order; im2col padding taps add
// exact zeros). fp32 scores are therefore bit-identical to the per-feature
// path for FC/element-wise stacks, and equal up to the sign of a zero for
// padded convolutions — see DESIGN.md "Compute kernels". An int8 score
// depends only on its own row (the activation scale is per row, GemmInt8's
// integer accumulation and per-output epilogue are batch-composition
// independent), so every quantized scan path agrees bit for bit as well.
type executor struct {
	net *Network
	// fcs is nil for fp32; for int8 it is index-aligned with net.Layers and
	// non-nil exactly at the FC layers.
	fcs []*quantFC
	max int
	fe  int // the network's FeatureElems
	// comb is the combined activation matrix, max×plan.combElems; for a
	// narrow network it holds the raw feature rows as a max×fe lanes operand
	// instead (DESIGN.md "Narrow first layers"), and a narrow network's
	// Resident, which reads its own store, has none.
	comb []float32
	// bufs[i] receives Layers[i]'s output, max×plan.outElems[i].
	bufs [][]float32
	// col is the im2col patch scratch, sized for the largest conv layer.
	col []float32
	// qin holds the per-row int8 activation image of the current FC layer's
	// input (max × the widest FC input), rowScales its per-row scales and acc
	// the int32 accumulators (max × the widest FC output). int8 only.
	qin       []int8
	rowScales []float32
	acc       []int32
}

func newExecutor(n *Network, fcs []*quantFC, maxBatch int, comb bool) executor {
	if maxBatch < 1 {
		panic(fmt.Sprintf("nn: batch scorer for %q needs maxBatch >= 1, got %d", n.Name, maxBatch))
	}
	p := &n.plan
	combLen := maxBatch * p.combElems
	if !comb {
		combLen = 0
	} else if p.lanesOut > 0 {
		combLen = tensor.LanesLen(maxBatch, p.combElems)
	}
	e := executor{
		net: n, fcs: fcs, max: maxBatch, fe: n.FeatureElems(),
		comb: make([]float32, combLen),
		bufs: make([][]float32, len(n.Layers)),
		col:  make([]float32, p.colLen),
	}
	for i, oe := range p.outElems {
		e.bufs[i] = make([]float32, maxBatch*oe)
	}
	if fcs != nil {
		e.qin = make([]int8, maxBatch*p.fcIn)
		e.rowScales = make([]float32, maxBatch)
		e.acc = make([]int32, maxBatch*p.fcOut)
	}
	return e
}

// checkLen panics unless operand i of the named kind has the network's
// feature length.
func (e *executor) checkLen(kind string, i, got int) {
	if got != e.fe {
		panic(fmt.Sprintf("nn: network %q wants %d-element features, %s %d has %d", e.net.Name, e.fe, kind, i, got))
	}
}

// run scores an nq×nb pair grid into scores[q][b]. The grid is flattened
// query-major and pushed through the scratch in max-row chunks, so a chunk's
// rows span many (query, feature) pairs and each FC layer's weight panel is
// streamed once per chunk instead of once per query — the multi-query
// amortization of the shared scan. fill writes the combined rows of pairs
// [base, base+rows) into comb; it runs once per chunk, not per row, which
// keeps the indirect call off the per-row path.
func (e *executor) run(scores [][]float32, nq, nb int, fill func(base, rows int)) {
	checkScores(scores, nq, nb)
	total := nq * nb
	ce := e.net.plan.combElems
	for base := 0; base < total; base += e.max {
		rows := min(total-base, e.max)
		fill(base, rows)
		out, oe := e.forward(0, e.comb, ce, rows)
		e.net.scoreAct().apply(out)
		for r := 0; r < rows; r++ {
			f := base + r
			scores[f/nb][f%nb] = out[r*oe]
		}
	}
}

// checkScores panics unless scores has room for an nq×nb grid.
func checkScores(scores [][]float32, nq, nb int) {
	if len(scores) < nq {
		panic(fmt.Sprintf("nn: %d score rows for %d queries", len(scores), nq))
	}
	for q := 0; q < nq; q++ {
		if len(scores[q]) < nb {
			panic(fmt.Sprintf("nn: %d scores for %d features (query %d)", len(scores[q]), nb, q))
		}
	}
}

// forward pushes the first rows rows of in — the input of Layers[first],
// inElems wide: the combined matrix when first is 0 — through the rest of
// the layer stack, returning the final layer's output before its activation
// (the logits; the caller applies scoreAct) and its per-row element count.
// An FC layer with an int8 image quantizes each activation row and runs
// GemmInt8; everything else takes the layer's float32 row kernel — the final
// FC for its live outputs only, since callers read nothing but the score
// (the int8 image still computes the whole layer; DESIGN.md "Live outputs").
func (e *executor) forward(first int, in []float32, inElems, rows int) ([]float32, int) {
	p := &e.net.plan
	last := len(e.net.Layers) - 1
	for li := first; li <= last; li++ {
		l := e.net.Layers[li]
		oe := p.outElems[li]
		switch {
		case e.fcs != nil && e.fcs[li] != nil:
			qfc := e.fcs[li]
			for b := 0; b < rows; b++ {
				e.rowScales[b] = quantizeInto(e.qin[b*inElems:(b+1)*inElems], in[b*inElems:(b+1)*inElems])
			}
			out := e.bufs[li][:rows*oe]
			tensor.GemmInt8(out, e.acc[:rows*qfc.fc.Out], e.qin[:rows*inElems], qfc.w,
				qfc.fc.B, rows, qfc.fc.Out, inElems, e.rowScales[:rows], qfc.scales)
		case li == last && p.liveOut > 0:
			oe = p.liveOut
			l.(*FC).forwardLive(e.bufs[li][:rows*oe], in[:rows*inElems], rows, oe)
		default:
			l.forwardRows(e.bufs[li][:rows*oe], in[:rows*inElems], rows, e.col)
		}
		in, inElems = e.bufs[li][:rows*oe], oe
		if li < last {
			l.activation().apply(in)
		}
	}
	return in, inElems
}

// forwardLanes is forward for a narrow network from its lanes operand:
// Layers[0] through tensor.GemmLanes over qfv and the first rows rows of
// lanes, its plan.lanesOut computed outputs alone, then the rest of the
// stack. Row for row it is the combine and forward(0) bit for bit, the
// combine's rounding taken in the kernel.
func (e *executor) forwardLanes(qfv, lanes []float32, rows int) ([]float32, int) {
	p := &e.net.plan
	fc, n := e.net.Layers[0].(*FC), p.lanesOut
	out := e.bufs[0][:rows*n]
	tensor.GemmLanes(out, qfv, lanes[:tensor.LanesLen(rows, e.fe)], fc.W[:n*fc.In], fc.B[:n], rows, n, e.fe, p.lanesOp)
	if len(e.net.Layers) > 1 {
		fc.Act.apply(out)
	}
	return e.forward(1, out, n, rows)
}

// BatchScorer is the batched float32 counterpart of Scorer: the executor
// with rows filled by the network's fp32 combine or, for a narrow network,
// with the raw feature rows packed for GemmLanes (runLanes). Like Scorer it
// is per-worker state, NOT safe for concurrent use.
type BatchScorer struct{ executor }

// BatchScorer returns a batched scorer processing up to maxBatch features
// per call. Memory scales with maxBatch × the widest activation; 64 is a
// good default (see DESIGN.md on batch-size selection).
func (n *Network) BatchScorer(maxBatch int) *BatchScorer {
	return &BatchScorer{newExecutor(n, nil, maxBatch, true)}
}

// ScoreBatch scores qfv against every vector in dfvs, writing scores[i] =
// Score(qfv, dfvs[i]): the one-query case of ScoreMulti held to a single
// chunk. len(dfvs) must not exceed MaxBatch and scores must have at least
// len(dfvs) elements. Partial batches use the leading rows of the scratch
// matrices, so ragged tails (range ends, small caches) cost only their own
// rows.
func (s *BatchScorer) ScoreBatch(scores []float32, qfv []float32, dfvs [][]float32) {
	if len(dfvs) > s.max {
		panic(fmt.Sprintf("nn: batch of %d exceeds scorer capacity %d", len(dfvs), s.max))
	}
	s.ScoreMulti([][]float32{scores}, [][]float32{qfv}, dfvs)
}

// ScoreMulti scores every query in qfvs against every feature in dfvs,
// writing scores[q][b] = Score(qfvs[q], dfvs[b]). Row arithmetic does not
// depend on how the grid is chunked, so every score is bit-identical to the
// per-query paths (Scorer.Score, ScoreBatch).
//
// scores needs at least len(qfvs) rows of at least len(dfvs) elements; Q
// and B are otherwise unconstrained (chunking handles Q*B > MaxBatch).
func (s *BatchScorer) ScoreMulti(scores [][]float32, qfvs [][]float32, dfvs [][]float32) {
	nq, nb := len(qfvs), len(dfvs)
	if nq == 0 || nb == 0 {
		return
	}
	for q, qfv := range qfvs {
		s.checkLen("qfv", q, len(qfv))
	}
	for b, dfv := range dfvs {
		s.checkLen("dfv", b, len(dfv))
	}
	if s.net.plan.lanesOut > 0 {
		s.runLanes(scores, qfvs, dfvs)
		return
	}
	ce := s.net.plan.combElems
	s.run(scores, nq, nb, func(base, rows int) {
		for r := 0; r < rows; r++ {
			f := base + r
			s.net.combine(s.comb[r*ce:(r+1)*ce], qfvs[f/nb], dfvs[f%nb])
		}
	})
}

// runLanes is ScoreMulti for a narrow network: per chunk of up to MaxBatch
// features it packs the raw rows into comb once, as a lanes operand, and
// runs forwardLanes once per query over them — no combined rows and no
// zero-padded columns, and the pack is shared by every query.
func (s *BatchScorer) runLanes(scores, qfvs, dfvs [][]float32) {
	nb := len(dfvs)
	checkScores(scores, len(qfvs), nb)
	act := s.net.scoreAct()
	for b0 := 0; b0 < nb; b0 += s.max {
		rows := min(nb-b0, s.max)
		lanes := s.comb[:tensor.LanesLen(rows, s.fe)]
		tensor.PackLanes(lanes, dfvs[b0:b0+rows], s.fe)
		for q, qfv := range qfvs {
			out, oe := s.forwardLanes(qfv, lanes, rows)
			act.apply(out)
			dst := scores[q][b0 : b0+rows]
			for r := range dst {
				dst[r] = out[r*oe]
			}
		}
	}
}
