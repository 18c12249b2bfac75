package tensor

import "fmt"

// GemmInt8 is the portable Gemm kernel at (int8, int32) plus an epilogue.
// The integer sum of each output is exact (127·127·k fits int32 for any k
// the engine uses, up to 2^17 elements), so the only rounding is one per
// output, where the per-row activation scale and the per-output weight scale
// convert it back to float32:
//
//	c[i*n+j] = float32(acc[i*n+j]) * aScales[i] * wScales[j]   (+ bias[j])
//
// evaluated strictly left to right in float32, the same expression GemvInt8
// uses — so GemmInt8 is bit-identical to the per-row reference regardless of
// batch composition, the property the quantized scan paths rely on.

// GemmInt8 computes C = dequant(A·Wᵀ) + bias: A is m×k row-major int8 with
// per-row scales aScales (length m), W is n×k row-major int8 with per-row
// scales wScales (length n), acc is m×n caller-owned int32 scratch, C is m×n
// row-major float32, and bias (optional, may be nil) has length n. Row i of C
// equals GemvInt8(row i of A, W, ...) bit for bit.
func GemmInt8(c []float32, acc []int32, a, w []int8, bias []float32, m, n, k int, aScales, wScales []float32) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("tensor: gemmint8 dims %d×%d×%d negative", m, n, k))
	}
	if len(a) != m*k {
		panic(fmt.Sprintf("tensor: gemmint8 A length %d != %d*%d", len(a), m, k))
	}
	if len(w) != n*k {
		panic(fmt.Sprintf("tensor: gemmint8 W length %d != %d*%d", len(w), n, k))
	}
	if len(c) != m*n {
		panic(fmt.Sprintf("tensor: gemmint8 C length %d != %d*%d", len(c), m, n))
	}
	if len(acc) != m*n {
		panic(fmt.Sprintf("tensor: gemmint8 acc length %d != %d*%d", len(acc), m, n))
	}
	if len(aScales) != m {
		panic(fmt.Sprintf("tensor: gemmint8 aScales length %d != %d", len(aScales), m))
	}
	if len(wScales) != n {
		panic(fmt.Sprintf("tensor: gemmint8 wScales length %d != %d", len(wScales), n))
	}
	if bias != nil && len(bias) != n {
		panic(fmt.Sprintf("tensor: gemmint8 bias length %d != %d", len(bias), n))
	}
	if k == 0 {
		clear(acc)
	}
	gemmPortable(acc, a, w, m, n, k)
	// Epilogue: one rounding per output, same expression as GemvInt8.
	for i := 0; i < m; i++ {
		as := aScales[i]
		arow := acc[i*n : (i+1)*n]
		crow := c[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = float32(arow[j]) * as * wScales[j]
		}
	}
	addBias(c, bias, m, n)
}

// GemvInt8 is the per-row int8 reference: out[j] = dequant(in·W[j]) + bias[j]
// for W n×k row-major, in length k, inScale the activation scale, wScales the
// per-output weight scales. The epilogue expression matches GemmInt8's.
func GemvInt8(out []float32, w []int8, in []int8, bias []float32, inScale float32, wScales []float32) {
	n := len(out)
	k := len(in)
	if len(w) != n*k {
		panic(fmt.Sprintf("tensor: gemvint8 W length %d != %d*%d", len(w), n, k))
	}
	if len(wScales) != n {
		panic(fmt.Sprintf("tensor: gemvint8 wScales length %d != %d", len(wScales), n))
	}
	if bias != nil && len(bias) != n {
		panic(fmt.Sprintf("tensor: gemvint8 bias length %d != %d", len(bias), n))
	}
	for j := 0; j < n; j++ {
		wrow := w[j*k:][:k]
		var s int32
		for p, av := range in {
			s += int32(av) * int32(wrow[p])
		}
		// Converted, so no compiler fuses the bias add into the product.
		v := float32(float32(s) * inScale * wScales[j])
		if bias != nil {
			v += bias[j]
		}
		out[j] = v
	}
}
