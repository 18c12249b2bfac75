package tensor

// The AVX2 side of Gemm (see the header of gemm.go for the design). This
// file and gemm_amd64.s are compiled on amd64 only, by filename suffix; the
// kernel is installed only when CPUID says the CPU has AVX2 and the OS
// saves the YMM state.

const gemmLanes = 16 // A rows per SIMD tile: two 8-float YMM registers

func init() {
	if hasAVX2() {
		gemmSIMD = gemmAVX2
	}
}

// hasAVX2 reports whether AVX2 instructions may be executed: the CPU
// advertises AVX and AVX2, and the OS has enabled XSAVE and set XCR0 bits 1
// and 2 (SSE and AVX state), without which YMM use faults.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid executes CPUID with the given leaf (EAX) and sub-leaf (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// gemmKernelAVX2 accumulates one 16×4 tile of C over a K panel: for lane l
// (row i0+l) and r in [0,4), acc[r][l] += ap[p*16+l] * w[r*ldw+p] for p in
// [0, kb) in order, multiply and add rounded separately. The accumulators
// start at zero when first is set, else from the tile's current contents.
// Only rows [0, mr) of the tile are read from or written to c (row stride
// ldc floats); lanes past mr compute on the panel's zero padding and are
// dropped. kb ≥ 1, 1 ≤ mr ≤ 16.
//
//go:noescape
func gemmKernelAVX2(c *float32, ldc int, ap *float32, w *float32, ldw, kb, mr int, first bool)

// gemmAVX2 is the gemmSIMD of AVX2 machines: all of columns [0, n&^3).
func gemmAVX2(c, a, w []float32, m, n, k int) int {
	n4 := n &^ (gemmNR - 1)
	if n4 == 0 || m == 0 || k == 0 {
		return 0
	}
	var ap [gemmLanes * gemmKC]float32
	for i0 := 0; i0 < m; i0 += gemmLanes {
		mr := min(m-i0, gemmLanes)
		for k0 := 0; k0 < k; k0 += gemmKC {
			kb := min(k-k0, gemmKC)
			packA(ap[:kb*gemmLanes], a[i0*k+k0:], mr, k)
			for j := 0; j < n4; j += gemmNR {
				gemmKernelAVX2(&c[i0*n+j], n, &ap[0], &w[j*k+k0], k, kb, mr, k0 == 0)
			}
		}
	}
	return n4
}

// packA writes the k-major panel of mr rows of a (row stride k floats,
// len(ap)/16 columns each): ap[p*16+l] = a[l*k+p], and zero for l ≥ mr.
func packA(ap, a []float32, mr, k int) {
	kb := len(ap) / gemmLanes
	if mr < gemmLanes {
		clear(ap)
	}
	l := 0
	for ; l+4 <= mr; l += 4 {
		// Four rows at a time turn the 64-byte-strided scalar stores
		// into one 16-byte run per panel row.
		r0 := a[l*k:][:kb]
		r1 := a[(l+1)*k:][:kb]
		r2 := a[(l+2)*k:][:kb]
		r3 := a[(l+3)*k:][:kb]
		dst := ap[l:]
		for p := range r0 {
			d := dst[p*gemmLanes:][:4]
			d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
		}
	}
	for ; l < mr; l++ {
		dst := ap[l:]
		for p, v := range a[l*k:][:kb] {
			dst[p*gemmLanes] = v
		}
	}
}
