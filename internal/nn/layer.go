// Package nn implements the neural-network layer library used by DeepStore's
// similarity comparison networks (SCNs) and query comparison networks (QCNs).
//
// The paper's workload study (§3, Table 1) shows that intelligent-query
// networks are built from three layer families — convolutional, fully
// connected, and element-wise — plus activations. This package provides:
//
//   - real float32 forward execution, so examples can compute actual
//     similarity scores on feature vectors;
//   - static characterization (FLOPs, weight bytes, output shapes) consumed
//     by the systolic-array timing model and the energy model; and
//   - a binary model-exchange codec standing in for the paper's ONNX format
//     (§4.7.2, loadModel).
package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Kind identifies a layer family, matching the taxonomy of Table 1.
type Kind int

const (
	KindFC Kind = iota
	KindConv
	KindElementwise
)

// String returns the Table 1 column name of the layer family.
func (k Kind) String() string {
	switch k {
	case KindFC:
		return "FC"
	case KindConv:
		return "CONV"
	case KindElementwise:
		return "EW"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Activation selects the nonlinearity applied after a layer's affine part.
type Activation int

const (
	ActNone Activation = iota
	ActReLU
	ActSigmoid
)

func (a Activation) apply(x []float32) {
	switch a {
	case ActReLU:
		tensor.ReLU(x)
	case ActSigmoid:
		tensor.Sigmoid(x)
	}
}

// of is apply on one value, through the same kernel, so a scalar activation
// and a batch one cannot disagree.
func (a Activation) of(x float32) float32 {
	v := [1]float32{x}
	a.apply(v[:])
	return v[0]
}

// String names the activation.
func (a Activation) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Layer is one stage of a sequential similarity-comparison network. The
// interface is sealed by its two unexported kernels: the families are the
// three of Table 1 (FC, Conv, Elementwise), which the codec, LayerPlan, the
// timing model and BoundScorer all enumerate.
type Layer interface {
	// Name returns a short diagnostic name, e.g. "fc1".
	Name() string
	// Kind returns the layer family.
	Kind() Kind
	// OutputShape returns the shape produced for the given input shape.
	OutputShape(in tensor.Shape) tensor.Shape
	// FLOPs returns the floating-point operations per forward pass
	// (multiply and add counted separately, as in Table 1).
	FLOPs(in tensor.Shape) int64
	// WeightCount returns the number of learned parameters.
	WeightCount() int64
	// InitRandom fills parameters from rng with small centered values.
	InitRandom(rng *rand.Rand)
	// activation is the nonlinearity that follows the layer's kernels
	// (ActNone for an element-wise layer); the walk applies it, so a final
	// layer's pre-activation output, its logits, is there to be read.
	activation() Activation
	// forwardInto is the per-sample kernel Scorer runs: it computes the layer
	// before its activation on one input vector, overwriting dst fully.
	forwardInto(dst, in []float32)
	// forwardRows is the batched kernel: it computes the layer before its
	// activation on every row of a rows×inElems activation matrix,
	// overwriting dst fully. col is the caller's im2col scratch. Row b gets
	// exactly forwardInto's arithmetic (up to the sign of a zero for padded
	// convolutions).
	forwardRows(dst, in []float32, rows int, col []float32)
}

// FC is a fully connected (dense) layer: y = act(Wx + b).
type FC struct {
	LayerName string
	In, Out   int
	W         []float32 // Out×In row-major
	B         []float32 // Out
	Act       Activation
}

// NewFC allocates a fully connected layer with zero weights.
func NewFC(name string, in, out int, act Activation) *FC {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: fc %q dims %dx%d invalid", name, in, out))
	}
	return &FC{
		LayerName: name, In: in, Out: out,
		W: make([]float32, in*out), B: make([]float32, out), Act: act,
	}
}

// Name implements Layer.
func (l *FC) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *FC) Kind() Kind { return KindFC }

// OutputShape implements Layer. FC flattens any input of matching size.
func (l *FC) OutputShape(in tensor.Shape) tensor.Shape {
	if in.Elems() != l.In {
		panic(fmt.Sprintf("nn: fc %q expects %d inputs, got shape %v", l.LayerName, l.In, in))
	}
	return tensor.Shape{l.Out}
}

// FLOPs implements Layer: one multiply plus one add per weight.
func (l *FC) FLOPs(in tensor.Shape) int64 { return 2 * int64(l.In) * int64(l.Out) }

// WeightCount implements Layer.
func (l *FC) WeightCount() int64 { return int64(l.In)*int64(l.Out) + int64(l.Out) }

// activation implements Layer.
func (l *FC) activation() Activation { return l.Act }

// forwardInto implements Layer. Gemv overwrites dst fully, so a reused buffer
// needs no clearing.
func (l *FC) forwardInto(dst, in []float32) { tensor.Gemv(dst, l.W, in, l.B) }

// forwardRows implements Layer: one blocked GEMM over the whole batch — the
// per-feature Gemv calls collapse into matrix-matrix compute that reuses each
// weight row across every batched feature.
func (l *FC) forwardRows(dst, in []float32, rows int, _ []float32) {
	l.forwardLive(dst, in, rows, l.Out)
}

// forwardLive is forwardRows for the first n outputs alone: dst is rows×n.
// W[:n·In] and B[:n] are taken as views at every call, never copied, so
// weights rewritten after the scorer was built (InitRandom) are the weights
// it runs.
func (l *FC) forwardLive(dst, in []float32, rows, n int) {
	tensor.Gemm(dst, in, l.W[:n*l.In], l.B[:n], rows, n, l.In)
}

// InitRandom implements Layer with Xavier-style scaling.
func (l *FC) InitRandom(rng *rand.Rand) {
	scale := float32(1.0) / float32(l.In)
	for i := range l.W {
		l.W[i] = (rng.Float32()*2 - 1) * scale
	}
	for i := range l.B {
		l.B[i] = (rng.Float32()*2 - 1) * 0.01
	}
}

// Conv is a 2-D convolutional layer over HWC inputs.
type Conv struct {
	LayerName string
	H, W, C   int // expected input dims
	K         int // filter count
	R, S      int // kernel height, width
	Stride    int
	Pad       int
	Wt        []float32 // K×R×S×C
	B         []float32 // K
	Act       Activation
}

// NewConv allocates a convolutional layer with zero weights.
func NewConv(name string, h, w, c, k, r, s, stride, pad int, act Activation) *Conv {
	l := &Conv{LayerName: name, H: h, W: w, C: c, K: k, R: r, S: s, Stride: stride, Pad: pad, Act: act}
	if err := l.checkGeometry(); err != nil {
		panic(err)
	}
	l.Wt, l.B = make([]float32, k*r*s*c), make([]float32, k)
	return l
}

// checkGeometry rejects dimensions no convolution can run with; the model
// decoder calls it on untrusted dimensions before it reads any weights.
func (l *Conv) checkGeometry() error {
	if l.H <= 0 || l.W <= 0 || l.C <= 0 || l.K <= 0 || l.R <= 0 || l.S <= 0 || l.Stride <= 0 || l.Pad < 0 {
		return fmt.Errorf("nn: conv %q has invalid geometry", l.LayerName)
	}
	if tensor.ConvOutput(l.H, l.R, l.Stride, l.Pad) <= 0 || tensor.ConvOutput(l.W, l.S, l.Stride, l.Pad) <= 0 {
		return fmt.Errorf("nn: conv %q produces empty output", l.LayerName)
	}
	return nil
}

// Name implements Layer.
func (l *Conv) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *Conv) Kind() Kind { return KindConv }

// OutputShape implements Layer.
func (l *Conv) OutputShape(in tensor.Shape) tensor.Shape {
	if in.Elems() != l.H*l.W*l.C {
		panic(fmt.Sprintf("nn: conv %q expects %d inputs, got shape %v", l.LayerName, l.H*l.W*l.C, in))
	}
	return tensor.Shape{
		tensor.ConvOutput(l.H, l.R, l.Stride, l.Pad),
		tensor.ConvOutput(l.W, l.S, l.Stride, l.Pad),
		l.K,
	}
}

// FLOPs implements Layer: 2 ops per MAC across the output volume.
func (l *Conv) FLOPs(in tensor.Shape) int64 {
	out := l.OutputShape(in)
	return 2 * int64(out[0]) * int64(out[1]) * int64(l.K) * int64(l.R) * int64(l.S) * int64(l.C)
}

// WeightCount implements Layer.
func (l *Conv) WeightCount() int64 {
	return int64(l.K)*int64(l.R)*int64(l.S)*int64(l.C) + int64(l.K)
}

// activation implements Layer.
func (l *Conv) activation() Activation { return l.Act }

// forwardInto implements Layer with the direct convolution, which overwrites
// dst fully.
func (l *Conv) forwardInto(dst, in []float32) {
	tensor.Conv2D(dst, in, l.Wt, l.B, l.H, l.W, l.C, l.K, l.R, l.S, l.Stride, l.Pad)
}

// forwardRows implements Layer. Each sample lowers to an im2col patch matrix
// and one GEMM; the patch scratch is reused across rows.
func (l *Conv) forwardRows(dst, in []float32, rows int, col []float32) {
	inLen := l.H * l.W * l.C
	pr, patch := tensor.Im2colLen(l.H, l.W, l.R, l.S, l.C, l.Stride, l.Pad)
	outLen := pr * l.K
	col = col[:pr*patch]
	for b := 0; b < rows; b++ {
		tensor.Conv2DIm2col(dst[b*outLen:(b+1)*outLen], in[b*inLen:(b+1)*inLen],
			l.Wt, l.B, col, l.H, l.W, l.C, l.K, l.R, l.S, l.Stride, l.Pad)
	}
}

// InitRandom implements Layer.
func (l *Conv) InitRandom(rng *rand.Rand) {
	scale := float32(1.0) / float32(l.R*l.S*l.C)
	for i := range l.Wt {
		l.Wt[i] = (rng.Float32()*2 - 1) * scale
	}
	for i := range l.B {
		l.B[i] = (rng.Float32()*2 - 1) * 0.01
	}
}

// EWOp selects the arithmetic of an element-wise layer.
type EWOp int

const (
	EWAdd EWOp = iota
	EWSub
	EWMul
	// EWScale multiplies every element by a learned per-element weight
	// (the only parameterized element-wise form in the studied apps).
	EWScale
)

// String names the element-wise operation.
func (o EWOp) String() string {
	switch o {
	case EWAdd:
		return "add"
	case EWSub:
		return "sub"
	case EWMul:
		return "mul"
	case EWScale:
		return "scale"
	default:
		return fmt.Sprintf("EWOp(%d)", int(o))
	}
}

// Elementwise is an element-wise layer. Binary forms (add/sub/mul) combine
// the input with a stored operand vector; EWScale applies learned weights.
// Inside a Network the combine stage supplies the second operand, so an
// Elementwise layer used mid-network holds its operand explicitly.
type Elementwise struct {
	LayerName string
	N         int
	Op        EWOp
	Operand   []float32 // length N; learned weights for EWScale, constants otherwise
}

// NewElementwise allocates an element-wise layer of width n.
func NewElementwise(name string, n int, op EWOp) *Elementwise {
	if n <= 0 {
		panic(fmt.Sprintf("nn: elementwise %q width %d invalid", name, n))
	}
	return &Elementwise{LayerName: name, N: n, Op: op, Operand: make([]float32, n)}
}

// Name implements Layer.
func (l *Elementwise) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *Elementwise) Kind() Kind { return KindElementwise }

// OutputShape implements Layer.
func (l *Elementwise) OutputShape(in tensor.Shape) tensor.Shape {
	if in.Elems() != l.N {
		panic(fmt.Sprintf("nn: elementwise %q expects %d inputs, got shape %v", l.LayerName, l.N, in))
	}
	return tensor.Shape{l.N}
}

// FLOPs implements Layer: one op per element.
func (l *Elementwise) FLOPs(in tensor.Shape) int64 { return int64(l.N) }

// WeightCount implements Layer: only EWScale has learned parameters.
func (l *Elementwise) WeightCount() int64 {
	if l.Op == EWScale {
		return int64(l.N)
	}
	return 0
}

// activation implements Layer: an element-wise layer has none.
func (l *Elementwise) activation() Activation { return ActNone }

// forwardInto implements Layer: the batched kernel with one row.
func (l *Elementwise) forwardInto(dst, in []float32) { l.forwardRows(dst, in, 1, nil) }

// forwardRows implements Layer: the operand vector repeats per row.
func (l *Elementwise) forwardRows(dst, in []float32, rows int, _ []float32) {
	for b := 0; b < rows; b++ {
		drow := dst[b*l.N : (b+1)*l.N]
		irow := in[b*l.N : (b+1)*l.N]
		switch l.Op {
		case EWAdd:
			for i := range drow {
				drow[i] = irow[i] + l.Operand[i]
			}
		case EWSub:
			for i := range drow {
				drow[i] = irow[i] - l.Operand[i]
			}
		case EWMul, EWScale:
			for i := range drow {
				drow[i] = irow[i] * l.Operand[i]
			}
		}
	}
}

// InitRandom implements Layer.
func (l *Elementwise) InitRandom(rng *rand.Rand) {
	for i := range l.Operand {
		l.Operand[i] = rng.Float32()*2 - 1
	}
}
