package tensor

// The AVX side of Mul and Sub (see elementwise.go): eight elements per
// VMULPS / VSUBPS and a scalar VMULSS / VSUBSS tail, installed by
// gemm_amd64.go's init beside the GEMM kernel. Compiled on amd64 only, by
// filename suffix.

// mulAVX writes dst[i] = a[i] * b[i] for i in [0, n).
//
//go:noescape
func mulAVX(dst, a, b *float32, n int)

// subAVX writes dst[i] = a[i] - b[i] for i in [0, n).
//
//go:noescape
func subAVX(dst, a, b *float32, n int)
