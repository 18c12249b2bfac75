// Package tensor provides the minimal dense-tensor machinery used by the
// neural-network library: shapes, float32 buffers, and the arithmetic
// primitives (GEMV, convolution loops, element-wise ops) that the similarity
// comparison networks are built from.
package tensor

import (
	"fmt"
	"math"
)

// Shape describes the dimensions of a tensor, outermost first.
type Shape []int

// Elems returns the total element count of the shape. An empty shape has one
// element (a scalar).
func (s Shape) Elems() int {
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", s))
		}
		n *= d
	}
	return n
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as, e.g., "[32 22 16]".
func (s Shape) String() string { return fmt.Sprint([]int(s)) }

// Gemv computes y = W*x + b where W is out×in row-major, x has length in and
// b (optional, may be nil) has length out. The result is written into y,
// which must have length out. Each output is ((((0 + w₀x₀) + w₁x₁) + …) + b),
// every multiply and every add rounded to float32 — the reference order all
// batched kernels reproduce bit for bit.
func Gemv(y []float32, w []float32, x []float32, b []float32) {
	out := len(y)
	in := len(x)
	if len(w) != out*in {
		panic(fmt.Sprintf("tensor: gemv weight length %d != %d*%d", len(w), out, in))
	}
	if b != nil && len(b) != out {
		panic(fmt.Sprintf("tensor: gemv bias length %d != %d", len(b), out))
	}
	for o := 0; o < out; o++ {
		row := w[o*in : (o+1)*in]
		var s float32
		for i := 0; i < in; i++ {
			s += float32(row[i] * x[i])
		}
		if b != nil {
			s += b[o]
		}
		y[o] = s
	}
}

// Conv2D performs a direct 2-D convolution.
//
// in:  H×W×C  (row-major HWC)
// w:   K×R×S×C (filters)
// b:   optional, length K
// out: OH×OW×K where OH = (H+2*pad-R)/stride + 1, OW likewise with S.
func Conv2D(out, in, w, b []float32, h, wd, c, k, r, s, stride, pad int) {
	oh := (h+2*pad-r)/stride + 1
	ow := (wd+2*pad-s)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic("tensor: conv2d produces empty output")
	}
	if len(in) != h*wd*c {
		panic(fmt.Sprintf("tensor: conv2d input length %d != %d", len(in), h*wd*c))
	}
	if len(w) != k*r*s*c {
		panic(fmt.Sprintf("tensor: conv2d weight length %d != %d", len(w), k*r*s*c))
	}
	if len(out) != oh*ow*k {
		panic(fmt.Sprintf("tensor: conv2d output length %d != %d", len(out), oh*ow*k))
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for f := 0; f < k; f++ {
				var acc float32
				for ry := 0; ry < r; ry++ {
					iy := oy*stride + ry - pad
					if iy < 0 || iy >= h {
						continue
					}
					for rx := 0; rx < s; rx++ {
						ix := ox*stride + rx - pad
						if ix < 0 || ix >= wd {
							continue
						}
						inBase := (iy*wd + ix) * c
						wBase := ((f*r+ry)*s + rx) * c
						for ch := 0; ch < c; ch++ {
							acc += float32(in[inBase+ch] * w[wBase+ch])
						}
					}
				}
				if b != nil {
					acc += b[f]
				}
				out[(oy*ow+ox)*k+f] = acc
			}
		}
	}
}

// ReLU applies max(0, x) in place: every v < 0 becomes +0 and everything
// else — -0 and NaNs of either sign included — keeps its bits. The test is
// made on the bits, where v < 0 is one unsigned range, (0x80000000,
// 0xFF800000] = (-0, -Inf], which compiles to a conditional move: a float
// compare-and-branch mispredicts on every other element of a sign-random
// activation vector. Where AVX is installed, reluAVX applies the same rule
// eight elements at a time.
func ReLU(x []float32) {
	relu(x, reluSIMD)
}

// reluSIMD is set once at init where reluAVX may run. A flag and a direct
// call rather than a func value like mulSIMD's: through a func value x
// would escape, and Activation.of hands ReLU a one-element array on its
// stack that must stay there.
var reluSIMD bool

// relu is ReLU with the kernel choice as a parameter so the tests can run
// the Go loop alone (simd false) on any machine.
func relu(x []float32, simd bool) {
	if simd && len(x) > 0 {
		reluAVX(&x[0], len(x))
		return
	}
	for i, v := range x {
		b := math.Float32bits(v)
		if b-0x80000001 <= 0xFF800000-0x80000001 {
			b = 0
		}
		x[i] = math.Float32frombits(b)
	}
}

// Sigmoid applies the logistic function in place.
func Sigmoid(x []float32) {
	for i, v := range x {
		x[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// ConvOutput returns the output spatial size of a convolution dimension.
func ConvOutput(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
