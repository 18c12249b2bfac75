package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Scorer is a reusable forward-pass context for one network: the combine
// output and every layer's output vector are allocated once and reused
// across Score calls, eliminating the per-comparison allocations that
// dominate the functional scan's hot loop. It walks the stack one feature at
// a time through the per-sample kernels — Gemv and the direct Conv2D, not the
// batched executor's Gemm and im2col — which is why it stays a separate walk:
// it is the oracle every agreement test and the benchmark's top-K check
// compare the executor against.
//
// A Scorer is NOT safe for concurrent use — it is per-worker state. The
// parallel query engine creates one Scorer per worker goroutine (the
// software analogue of each accelerator's private scratchpad); Network
// itself stays immutable and may be shared by any number of Scorers.
type Scorer struct {
	net  *Network
	comb []float32
	// outs[i] receives Layers[i]'s output.
	outs [][]float32
}

// Scorer returns a fresh scratch-buffer scorer for the network. Buffers are
// sized from the validated plan, so Score never allocates.
func (n *Network) Scorer() *Scorer {
	s := &Scorer{net: n, comb: make([]float32, n.plan.combElems), outs: make([][]float32, len(n.Layers))}
	for i, oe := range n.plan.outElems {
		s.outs[i] = make([]float32, oe)
	}
	return s
}

// Score runs one comparison through the reused buffers and returns the
// similarity score: the first element of the final layer's output.
func (s *Scorer) Score(qfv, dfv []float32) float32 {
	n := s.net
	if fe := n.FeatureElems(); len(qfv) != fe || len(dfv) != fe {
		panic(fmt.Sprintf("nn: network %q wants %d-element features, got %d and %d",
			n.Name, fe, len(qfv), len(dfv)))
	}
	x := s.comb
	n.combine(x, qfv, dfv)
	for i, l := range n.Layers {
		l.forwardInto(s.outs[i], x)
		l.activation().apply(s.outs[i])
		x = s.outs[i]
	}
	return x[0]
}

// combine writes the combined-activation row of one (qfv, dfv) pair — the
// fp32 front end of the per-feature and the batched walk alike.
func (n *Network) combine(row, qfv, dfv []float32) {
	fe := len(qfv)
	switch n.Combine {
	case CombineHadamard:
		tensor.Mul(row, qfv, dfv)
	case CombineSubtract:
		tensor.Sub(row, qfv, dfv)
	case CombineConcat:
		copy(row[:fe], qfv)
		copy(row[fe:], dfv)
	}
}
