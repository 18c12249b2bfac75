package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// forward runs l's per-sample kernel and its activation on in, of the given
// shape, returning a fresh output.
func forward(l Layer, in []float32, shape ...int) []float32 {
	out := make([]float32, l.OutputShape(shape).Elems())
	l.forwardInto(out, in)
	l.activation().apply(out)
	return out
}

func TestFCForwardAndCounts(t *testing.T) {
	l := NewFC("fc", 3, 2, ActNone)
	copy(l.W, []float32{1, 2, 3, 4, 5, 6})
	copy(l.B, []float32{1, -1})
	out := forward(l, []float32{1, 1, 1}, 3)
	if out[0] != 7 || out[1] != 14 {
		t.Errorf("fc forward = %v, want [7 14]", out)
	}
	if got := l.FLOPs(tensor.Shape{3}); got != 12 {
		t.Errorf("fc flops = %d, want 12", got)
	}
	if got := l.WeightCount(); got != 8 {
		t.Errorf("fc weights = %d, want 8", got)
	}
	if !slices.Equal(l.OutputShape(tensor.Shape{3}), tensor.Shape{2}) {
		t.Error("fc output shape wrong")
	}
}

func TestFCReLU(t *testing.T) {
	l := NewFC("fc", 1, 2, ActReLU)
	copy(l.W, []float32{1, -1})
	out := forward(l, []float32{5}, 1)
	if out[0] != 5 || out[1] != 0 {
		t.Errorf("relu fc = %v, want [5 0]", out)
	}
}

func TestFCFlattensInput(t *testing.T) {
	l := NewFC("fc", 6, 1, ActNone)
	// Should not panic: FC accepts any shape with matching element count.
	forward(l, make([]float32, 6), 2, 3)
	if !slices.Equal(l.OutputShape(tensor.Shape{2, 3}), tensor.Shape{1}) {
		t.Error("fc did not flatten input shape")
	}
}

func TestFCBadDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-dim FC did not panic")
		}
	}()
	NewFC("bad", 0, 2, ActNone)
}

func TestConvCharacteristics(t *testing.T) {
	// ReId-style conv: 32x22x16 input, 16 3x3 filters, stride 1, pad 1.
	l := NewConv("conv1", 32, 22, 16, 16, 3, 3, 1, 1, ActReLU)
	shape := tensor.Shape{32, 22, 16}
	if !slices.Equal(l.OutputShape(shape), tensor.Shape{32, 22, 16}) {
		t.Errorf("conv output shape = %v", l.OutputShape(shape))
	}
	wantFLOPs := int64(2 * 32 * 22 * 16 * 3 * 3 * 16)
	if got := l.FLOPs(shape); got != wantFLOPs {
		t.Errorf("conv flops = %d, want %d", got, wantFLOPs)
	}
	if got := l.WeightCount(); got != 16*3*3*16+16 {
		t.Errorf("conv weights = %d", got)
	}
}

func TestConvForwardMatchesTensorOp(t *testing.T) {
	l := NewConv("c", 3, 3, 1, 1, 3, 3, 1, 1, ActNone)
	for i := range l.Wt {
		l.Wt[i] = 1
	}
	out := forward(l, []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, 3, 3, 1)
	if out[4] != 9 { // (1, 1, 0) in HWC order
		t.Errorf("conv center = %v, want 9", out[4])
	}
}

func TestConvEmptyOutputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty conv output did not panic")
		}
	}()
	NewConv("bad", 2, 2, 1, 1, 5, 5, 1, 0, ActNone)
}

func TestElementwiseOps(t *testing.T) {
	in := []float32{1, 2, 3}
	cases := []struct {
		op   EWOp
		want []float32
	}{
		{EWAdd, []float32{3, 4, 5}},
		{EWSub, []float32{-1, 0, 1}},
		{EWMul, []float32{2, 4, 6}},
		{EWScale, []float32{2, 4, 6}},
	}
	for _, c := range cases {
		l := NewElementwise("ew", 3, c.op)
		copy(l.Operand, []float32{2, 2, 2})
		out := forward(l, in, 3)
		for i := range c.want {
			if out[i] != c.want[i] {
				t.Errorf("%v forward = %v, want %v", c.op, out, c.want)
				break
			}
		}
	}
}

func TestElementwiseCounts(t *testing.T) {
	l := NewElementwise("ew", 512, EWMul)
	if got := l.FLOPs(tensor.Shape{512}); got != 512 {
		t.Errorf("ew flops = %d, want 512", got)
	}
	if got := l.WeightCount(); got != 0 {
		t.Errorf("ew(mul) weights = %d, want 0", got)
	}
	ls := NewElementwise("ews", 512, EWScale)
	if got := ls.WeightCount(); got != 512 {
		t.Errorf("ew(scale) weights = %d, want 512", got)
	}
}

func TestInitRandomDeterministic(t *testing.T) {
	a := NewFC("fc", 8, 8, ActNone)
	b := NewFC("fc", 8, 8, ActNone)
	a.InitRandom(rand.New(rand.NewSource(42)))
	b.InitRandom(rand.New(rand.NewSource(42)))
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatal("InitRandom not deterministic")
		}
	}
	// Weights are small and centered.
	var sum float64
	for _, w := range a.W {
		if math.Abs(float64(w)) > 1.0/8 {
			t.Fatalf("weight %v exceeds Xavier scale", w)
		}
		sum += float64(w)
	}
	if math.Abs(sum/float64(len(a.W))) > 0.1 {
		t.Errorf("weights not centered: mean %v", sum/float64(len(a.W)))
	}
}

func TestKindAndActivationStrings(t *testing.T) {
	if KindFC.String() != "FC" || KindConv.String() != "CONV" || KindElementwise.String() != "EW" {
		t.Error("kind strings wrong")
	}
	if ActReLU.String() != "relu" || ActNone.String() != "none" || ActSigmoid.String() != "sigmoid" {
		t.Error("activation strings wrong")
	}
	if EWMul.String() != "mul" || EWSub.String() != "sub" || EWAdd.String() != "add" || EWScale.String() != "scale" {
		t.Error("ew op strings wrong")
	}
}
