package tensor

// The AVX side of Mul, Sub (see elementwise.go) and ReLU: eight elements per
// VMULPS / VSUBPS / VCMPPS and a scalar tail, installed by gemm_amd64.go's
// init beside the GEMM kernel. Compiled on amd64 only, by filename suffix.

// mulAVX writes dst[i] = a[i] * b[i] for i in [0, n).
//
//go:noescape
func mulAVX(dst, a, b *float32, n int)

// subAVX writes dst[i] = a[i] - b[i] for i in [0, n).
//
//go:noescape
func subAVX(dst, a, b *float32, n int)

// reluAVX applies ReLU's rule to x[i] for i in [0, n): v < 0 becomes +0,
// everything else keeps its bits.
//
//go:noescape
func reluAVX(x *float32, n int)
