package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// CombineOp describes how a network's two branches — the query feature vector
// (QFV) and a database feature vector (DFV) — are merged before the shared
// layer stack (the two-branch architecture of §2.1, Fig. 1).
type CombineOp int

const (
	// CombineHadamard multiplies QFV and DFV element-wise (the "vector dot
	// product" front end of TIR and TextQA). Counted as one element-wise
	// layer in Table 1.
	CombineHadamard CombineOp = iota
	// CombineSubtract takes QFV − DFV element-wise (ReId-style neighborhood
	// difference). Counted as one element-wise layer.
	CombineSubtract
	// CombineConcat concatenates [QFV ‖ DFV]. Pure data movement: zero
	// FLOPs, not counted as an element-wise layer (MIR, ESTP).
	CombineConcat
)

// String names the combine op.
func (c CombineOp) String() string {
	switch c {
	case CombineHadamard:
		return "hadamard"
	case CombineSubtract:
		return "subtract"
	case CombineConcat:
		return "concat"
	default:
		return fmt.Sprintf("CombineOp(%d)", int(c))
	}
}

// IsElementwise reports whether the combine counts as an element-wise layer
// in the Table 1 taxonomy.
func (c CombineOp) IsElementwise() bool { return c != CombineConcat }

// Network is a similarity-comparison network (SCN) or query-comparison
// network (QCN): a two-branch front end merged by Combine, followed by a
// sequential layer stack ending in a similarity score.
type Network struct {
	Name string
	// FeatureShape is the shape of one feature vector (each branch).
	FeatureShape tensor.Shape
	Combine      CombineOp
	Layers       []Layer
	plan         plan
	layerPlan    []LayerDims
}

// scoreAct is the last layer's activation (ActNone without layers): a score
// is scoreAct of the logit the rest of the stack computes.
func (n *Network) scoreAct() Activation {
	if len(n.Layers) == 0 {
		return ActNone
	}
	return n.Layers[len(n.Layers)-1].activation()
}

// Activate maps a logit, a Resident.Logits output, to the network's score:
// the last layer's activation as a scalar function. Every Activation is
// non-decreasing and maps only NaN to NaN, so no logit scores above a larger
// one.
func (n *Network) Activate(logit float32) float32 { return n.scoreAct().of(logit) }

// plan is what every executor needs to know about a network's shapes to size
// its scratch, computed once by NewNetwork's validating walk: Scorer, the
// batched executor and BoundScorer read it instead of re-walking OutputShape.
type plan struct {
	combElems int   // row width of the combined (QFV, DFV) activation
	outElems  []int // outElems[i] is the row width Layers[i] produces
	widest    int   // widest activation, the combined row included
	colLen    int   // largest conv im2col scratch; 0 without a conv
	fcIn      int   // widest FC input and output: the int8 executor's
	fcOut     int   // activation-image and accumulator row widths
	// liveOut is how many leading outputs of a final FC anything reads: 1,
	// the score element (0 when the stack does not end in an FC). The fp32
	// executor computes only those; see DESIGN.md "Live outputs".
	liveOut int
	// lanesOut is how many outputs of Layers[0] the fp32 executors compute
	// through tensor.GemmLanes, the combine and the dot products in one
	// pass, with lanesOp as the combine: 0 unless the network is narrow —
	// a Hadamard or Subtract combine into an FC with fewer than
	// narrowCols computed outputs (only the live ones when it is also the
	// last layer). See DESIGN.md "Narrow first layers".
	lanesOut int
	lanesOp  tensor.LaneOp
}

// narrowCols bounds the first-layer outputs a narrow network computes
// through GemmLanes. The lanes kernel redoes the combine for every output
// column, which pays for a one-neuron QCN or a first FC cut to its score; a
// wider first layer runs the combine once and Gemm's 16×4 tile.
const narrowCols = 4

// NewNetwork builds a network and validates that the layer stack is
// shape-consistent with the combined input.
func NewNetwork(name string, featureShape tensor.Shape, combine CombineOp, layers ...Layer) (*Network, error) {
	n := &Network{Name: name, FeatureShape: featureShape.Clone(), Combine: combine, Layers: layers}
	if featureShape.Elems() == 0 {
		return nil, fmt.Errorf("nn: network %q has empty feature shape", name)
	}
	// Walk shapes through the stack; Layer.OutputShape panics on mismatch,
	// which we convert to an error here so construction is checkable.
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("nn: network %q shape check: %v", name, r)
			}
		}()
		shape := n.combinedShape()
		p := &n.plan
		p.combElems, p.widest = shape.Elems(), shape.Elems()
		if combine.IsElementwise() {
			n.layerPlan = append(n.layerPlan, LayerDims{
				Name:  "combine-" + combine.String(),
				Kind:  KindElementwise,
				In:    shape.Clone(),
				Out:   shape.Clone(),
				FLOPs: int64(shape.Elems()),
			})
		}
		for i, l := range layers {
			d := LayerDims{
				Name:    l.Name(),
				Kind:    l.Kind(),
				In:      shape.Clone(),
				Out:     l.OutputShape(shape),
				FLOPs:   l.FLOPs(shape),
				Weights: l.WeightCount(),
			}
			if cv, ok := l.(*Conv); ok {
				d.K, d.R, d.S, d.C, d.Stride = cv.K, cv.R, cv.S, cv.C, cv.Stride
			}
			n.layerPlan = append(n.layerPlan, d)
			shape = d.Out
			p.outElems = append(p.outElems, shape.Elems())
			p.widest = max(p.widest, shape.Elems())
			switch l := l.(type) {
			case *FC:
				p.fcIn, p.fcOut = max(p.fcIn, l.In), max(p.fcOut, l.Out)
				if i == len(layers)-1 {
					p.liveOut = 1
				}
			case *Conv:
				rows, patch := tensor.Im2colLen(l.H, l.W, l.R, l.S, l.C, l.Stride, l.Pad)
				p.colLen = max(p.colLen, rows*patch)
			}
		}
	}()
	if err != nil {
		return nil, err
	}
	n.planLanes()
	return n, nil
}

// planLanes sets plan.lanesOut and plan.lanesOp when the network is narrow.
func (n *Network) planLanes() {
	if len(n.Layers) == 0 || !n.Combine.IsElementwise() {
		return
	}
	fc, ok := n.Layers[0].(*FC)
	if !ok {
		return
	}
	out := fc.Out
	if len(n.Layers) == 1 {
		out = n.plan.liveOut
	}
	if out >= narrowCols {
		return
	}
	n.plan.lanesOut, n.plan.lanesOp = out, tensor.LaneMul
	if n.Combine == CombineSubtract {
		n.plan.lanesOp = tensor.LaneSub
	}
}

// MustNetwork is NewNetwork that panics on error; for static model zoo
// definitions that are covered by tests.
func MustNetwork(name string, featureShape tensor.Shape, combine CombineOp, layers ...Layer) *Network {
	n, err := NewNetwork(name, featureShape, combine, layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// combinedShape is the shape entering the first layer.
func (n *Network) combinedShape() tensor.Shape {
	if n.Combine == CombineConcat {
		return tensor.Shape{2 * n.FeatureShape.Elems()}
	}
	return n.FeatureShape.Clone()
}

// FeatureElems returns the element count of one feature vector.
func (n *Network) FeatureElems() int { return n.FeatureShape.Elems() }

// FeatureBytes returns the byte size of one float32 feature vector.
func (n *Network) FeatureBytes() int64 { return int64(n.FeatureShape.Elems()) * 4 }

// Score runs a forward pass comparing qfv against dfv and returns the
// similarity score: the first element of the final layer output. It is a
// convenience wrapper over Scorer for one-off comparisons; hot loops should
// hold a per-worker Scorer to reuse its scratch buffers across calls.
func (n *Network) Score(qfv, dfv []float32) float32 {
	return n.Scorer().Score(qfv, dfv)
}

// FLOPsPerComparison returns the total FLOPs of one query-to-feature
// comparison, including the combine stage.
func (n *Network) FLOPsPerComparison() int64 {
	var total int64
	if n.Combine.IsElementwise() {
		total += int64(n.FeatureElems())
	}
	shape := n.combinedShape()
	for _, l := range n.Layers {
		total += l.FLOPs(shape)
		shape = l.OutputShape(shape)
	}
	return total
}

// WeightCount returns the total learned parameters.
func (n *Network) WeightCount() int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.WeightCount()
	}
	return total
}

// WeightBytes returns the model size in bytes (float32 parameters).
func (n *Network) WeightBytes() int64 { return n.WeightCount() * 4 }

// CountKinds returns the number of layers of each family, with the combine
// stage counted as an element-wise layer when applicable — the Table 1
// accounting.
func (n *Network) CountKinds() (conv, fc, ew int) {
	if n.Combine.IsElementwise() {
		ew++
	}
	for _, l := range n.Layers {
		switch l.Kind() {
		case KindConv:
			conv++
		case KindFC:
			fc++
		case KindElementwise:
			ew++
		}
	}
	return conv, fc, ew
}

// LayerDims describes one layer for the timing model.
type LayerDims struct {
	Name    string
	Kind    Kind
	In      tensor.Shape
	Out     tensor.Shape
	FLOPs   int64
	Weights int64
	// Conv geometry (zero for non-conv layers).
	K, R, S, C, Stride int
}

// LayerPlan returns per-layer dimensions, including a synthetic entry for an
// element-wise combine stage, in execution order. The timing model maps each
// entry onto the systolic array. NewNetwork's shape walk fills it once; the
// slice is shared, so callers must not modify it.
func (n *Network) LayerPlan() []LayerDims { return n.layerPlan }

// InitRandom initializes every layer's parameters deterministically from
// seed, so simulations and examples are reproducible.
func (n *Network) InitRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, l := range n.Layers {
		l.InitRandom(rng)
	}
}

// String summarizes the network, e.g.
// "TIR: 512 features, hadamard, FC 512x512 -> FC 512x256 -> FC 256x2".
func (n *Network) String() string {
	s := fmt.Sprintf("%s: %d features, %s", n.Name, n.FeatureElems(), n.Combine)
	for _, l := range n.Layers {
		s += " -> " + l.Name()
	}
	return s
}
