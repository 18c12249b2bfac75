package tensor

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestShapeElems(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{}, 1},
		{Shape{5}, 5},
		{Shape{3, 4}, 12},
		{Shape{32, 22, 16}, 11264},
		{Shape{2, 0, 3}, 0},
	}
	for _, c := range cases {
		if got := c.s.Elems(); got != c.want {
			t.Errorf("%v.Elems() = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqualClone(t *testing.T) {
	s := Shape{3, 4}
	c := s.Clone()
	if !slices.Equal(s, c) {
		t.Error("clone not equal")
	}
	c[0] = 9
	if s[0] != 3 {
		t.Error("clone aliases original")
	}
}

// TestTensorAtSet: activations are row-major HWC, and Conv2D writes output
// channel k of pixel (h, w) at ((h·W)+w)·K+k.
func TestTensorAtSet(t *testing.T) {
	in := []float32{1, 2, 3, 4, 5, 6} // 2×3×1
	out := make([]float32, 12)
	Conv2D(out, in, []float32{1, 2}, nil, 2, 3, 1, 2, 1, 1, 1, 0) // 1×1, K = 2
	if out[(1*3+2)*2+1] != 2*in[1*3+2] || out[(0*3+1)*2] != in[1] {
		t.Errorf("conv output %v not in row-major HWC order", out)
	}
}

// TestFromSliceValidates: a kernel rejects an operand whose length does not
// fit the shape the others give it.
func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Gemv weights did not panic")
		}
	}()
	Gemv(make([]float32, 2), []float32{1, 2, 3}, []float32{1, 2}, nil)
}

// TestDot: a one-row Gemv is the inner product.
func TestDot(t *testing.T) {
	var got [1]float32
	Gemv(got[:], []float32{1, 2, 3}, []float32{4, 5, 6}, nil)
	if got[0] != 32 {
		t.Errorf("dot = %v, want 32", got[0])
	}
}

func TestGemvIdentity(t *testing.T) {
	w := []float32{1, 0, 0, 1} // 2x2 identity
	x := []float32{3, 4}
	y := make([]float32, 2)
	Gemv(y, w, x, nil)
	if y[0] != 3 || y[1] != 4 {
		t.Errorf("identity gemv = %v", y)
	}
}

func TestGemvWithBias(t *testing.T) {
	w := []float32{1, 2, 3, 4} // [[1,2],[3,4]]
	x := []float32{1, 1}
	b := []float32{10, 20}
	y := make([]float32, 2)
	Gemv(y, w, x, b)
	if y[0] != 13 || y[1] != 27 {
		t.Errorf("gemv = %v, want [13 27]", y)
	}
}

// Property: Gemv is linear — W(ax) = a(Wx).
func TestGemvLinearity(t *testing.T) {
	f := func(a int8) bool {
		scale := float32(a)
		w := []float32{2, -1, 0.5, 3, 1, -2}
		x := []float32{1, 2, 3}
		sx := []float32{scale * 1, scale * 2, scale * 3}
		y1 := make([]float32, 2)
		y2 := make([]float32, 2)
		Gemv(y1, w, x, nil)
		Gemv(y2, w, sx, nil)
		for i := range y1 {
			if math.Abs(float64(y1[i]*scale-y2[i])) > 1e-3*math.Abs(float64(y2[i]))+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// 1x1 kernel with weight 1 on a 2x2x1 input reproduces the input.
	in := []float32{1, 2, 3, 4}
	w := []float32{1}
	out := make([]float32, 4)
	Conv2D(out, in, w, nil, 2, 2, 1, 1, 1, 1, 1, 0)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("out = %v, want %v", out, in)
		}
	}
}

func TestConv2DSumKernel(t *testing.T) {
	// 3x3 all-ones kernel, pad 1: center output = sum of all inputs for 3x3 input.
	in := []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}
	w := make([]float32, 9)
	for i := range w {
		w[i] = 1
	}
	out := make([]float32, 9)
	Conv2D(out, in, w, nil, 3, 3, 1, 1, 3, 3, 1, 1)
	if out[4] != 9 {
		t.Errorf("center = %v, want 9", out[4])
	}
	if out[0] != 4 { // corner sees a 2x2 region
		t.Errorf("corner = %v, want 4", out[0])
	}
}

func TestConv2DStride(t *testing.T) {
	// 4x4 input, 2x2 kernel of ones, stride 2 -> 2x2 output of quadrant sums.
	in := make([]float32, 16)
	for i := range in {
		in[i] = float32(i)
	}
	w := []float32{1, 1, 1, 1}
	out := make([]float32, 4)
	Conv2D(out, in, w, nil, 4, 4, 1, 1, 2, 2, 2, 0)
	// Quadrant sums: (0+1+4+5)=10, (2+3+6+7)=18, (8+9+12+13)=42, (10+11+14+15)=50
	want := []float32{10, 18, 42, 50}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestConvOutput(t *testing.T) {
	if got := ConvOutput(32, 3, 1, 1); got != 32 {
		t.Errorf("same-pad conv output = %d, want 32", got)
	}
	if got := ConvOutput(32, 3, 2, 1); got != 16 {
		t.Errorf("strided conv output = %d, want 16", got)
	}
}

func TestReLU(t *testing.T) {
	x := []float32{-1, 0, 2, -3.5}
	ReLU(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("relu = %v, want %v", x, want)
		}
	}
}

func TestSigmoidRange(t *testing.T) {
	x := []float32{-10, 0, 10}
	Sigmoid(x)
	if x[1] != 0.5 {
		t.Errorf("sigmoid(0) = %v, want 0.5", x[1])
	}
	if x[0] > 0.001 || x[2] < 0.999 {
		t.Errorf("sigmoid tails = %v", x)
	}
}

// cosine is the cosine of the angle between a and b from three one-row
// Gemv products, or 0 if either has zero norm.
func cosine(a, b []float32) float32 {
	var ab, aa, bb [1]float32
	Gemv(ab[:], a, b, nil)
	Gemv(aa[:], a, a, nil)
	Gemv(bb[:], b, b, nil)
	if aa[0] == 0 || bb[0] == 0 {
		return 0
	}
	return ab[0] / float32(math.Sqrt(float64(aa[0]))*math.Sqrt(float64(bb[0])))
}

func TestCosineSimilarity(t *testing.T) {
	if got := cosine([]float32{1, 0}, []float32{1, 0}); math.Abs(float64(got)-1) > 1e-6 {
		t.Errorf("cos(same) = %v, want 1", got)
	}
	if got := cosine([]float32{1, 0}, []float32{0, 1}); got != 0 {
		t.Errorf("cos(orthogonal) = %v, want 0", got)
	}
	if got := cosine([]float32{0, 0}, []float32{1, 1}); got != 0 {
		t.Errorf("cos(zero) = %v, want 0", got)
	}
}

// Property: cosine similarity is bounded in [-1, 1].
func TestCosineSimilarityBounds(t *testing.T) {
	f := func(a1, a2, b1, b2 int8) bool {
		a := []float32{float32(a1), float32(a2)}
		b := []float32{float32(b1), float32(b2)}
		c := cosine(a, b)
		return c >= -1.0001 && c <= 1.0001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
