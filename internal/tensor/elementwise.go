package tensor

import "fmt"

// Element-wise binary kernels: the fill of a Hadamard or subtract combine is
// one multiply or one subtract per element, short enough (a QCN row is 200
// multiplies in front of one neuron) that a scalar loop shows in the cache
// sweep. Each element is a single IEEE operation, so eight lanes at a time
// give the scalar loop's bits on every platform; the kernels are nil where
// the machine has none and the Go loops are then the whole implementation.

// An elemKernel computes n elements of dst from a and b. n ≥ 1.
type elemKernel func(dst, a, b *float32, n int)

// mulSIMD and subSIMD are the platform's element-wise kernels, nil when it
// has none. Set once at init.
var mulSIMD, subSIMD elemKernel

// Mul writes dst[i] = a[i] * b[i]. The three slices must be equally long; dst
// may be a or b but must not otherwise overlap them.
func Mul(dst, a, b []float32) {
	checkElemLens("mul", dst, a, b)
	mul(dst, a, b, mulSIMD)
}

// Sub writes dst[i] = a[i] - b[i] under Mul's rules.
func Sub(dst, a, b []float32) {
	checkElemLens("sub", dst, a, b)
	sub(dst, a, b, subSIMD)
}

func checkElemLens(op string, dst, a, b []float32) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(fmt.Sprintf("tensor: %s of lengths %d, %d into %d", op, len(a), len(b), len(dst)))
	}
}

// mul and sub are Mul and Sub after validation, with the kernel as a
// parameter so the tests can run the Go loop alone (simd nil) on any machine.
func mul(dst, a, b []float32, simd elemKernel) {
	if simd != nil && len(dst) > 0 {
		simd(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func sub(dst, a, b []float32, simd elemKernel) {
	if simd != nil && len(dst) > 0 {
		simd(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}
