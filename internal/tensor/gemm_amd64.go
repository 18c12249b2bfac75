package tensor

// The AVX2 and AVX-512 sides of Gemm (see the header of gemm.go for the
// design). This file and gemm_amd64.s are compiled on amd64 only, by
// filename suffix; each kernel is installed only when CPUID says the CPU has
// its instructions and the OS saves its register state.

const (
	gemmLanes = LaneRows // A rows per SIMD tile: two YMM or one ZMM register
	gemmNRZ   = 8        // W rows (C columns) per AVX-512 tile
)

func init() {
	if hasAVX2() {
		gemmSIMD, mulSIMD, subSIMD, gemmLanesSIMD = gemmAVX2, mulAVX, subAVX, gemmLanesAVX2
		reluSIMD, packLanesSIMD = true, true
	}
	if hasAVX512() {
		gemmSIMD = gemmAVX512
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

// hasAVX512 reports whether the AVX-512 kernel may run: AVX2 may (the
// kernel hands narrow products to it), the CPU advertises AVX512F, and XCR0
// also has bits 5, 6 and 7 set (opmask, upper halves of Z0–Z15, Z16–Z31).
func hasAVX512() bool {
	if !hasAVX2() {
		return false
	}
	const avx512f = 1 << 16
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	xcr0, _ := xgetbv()
	return xcr0&zmmState == zmmState
}

// cpuid executes CPUID with the given leaf (EAX) and sub-leaf (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// gemmKernelAVX2 accumulates one 16×4 tile of C over a K panel: for lane l
// (row i0+l) and r in [0,4), acc[r][l] += ap[p*16+l] * wr[p] for p in [0, kb)
// in order, multiply and add rounded separately; w0–w3 are the tile's four W
// rows at the panel's first column. The accumulators start at zero when first
// is set, else from the tile's current contents. Only rows [0, mr) of the
// tile are read from or written to c (row stride ldc floats); lanes past mr
// compute on the panel's zero padding and are dropped. kb ≥ 1, 1 ≤ mr ≤ 16.
//
//go:noescape
func gemmKernelAVX2(c *float32, ldc int, ap, w0, w1, w2, w3 *float32, kb, mr int, first bool)

// gemmKernelAVX512 is gemmKernelAVX2 for a 16×8 tile: for lane l and r in
// [0,8), acc[r][l] += ap[p*16+l] * w[r][p] for p in [0, kb) in order, one
// rounding for the multiply and one for the add, with w the tile's eight W
// rows at the panel's first column. A non-nil bias (eight floats) is added
// to each column after the panel's reduction, so the caller passes it on the
// last K panel only. Rows, first and mr are as for gemmKernelAVX2.
//
//go:noescape
func gemmKernelAVX512(c *float32, ldc int, ap *float32, w *[gemmNRZ]*float32, bias *float32, kb, mr int, first bool)

// packA16AVX2 writes the k-major panel of 16 full rows of a (row stride lda
// floats) for kb columns, kb a positive multiple of 4: ap[p*16+l] = a[l*lda+p].
// Four columns of all sixteen rows go through two in-register 4×4 transposes
// per 128-bit half, so the panel is written in whole 32-byte runs.
//
//go:noescape
func packA16AVX2(ap, a *float32, lda, kb int)

// packLanes8AVX2 writes eight rows of a lanes block for kb columns, kb a
// positive multiple of 4: ap[p*16+l] = rows[l][p] for l < 8, the other eight
// lanes of each panel row untouched. Four columns of the eight rows go
// through one in-register 4×4 transpose per 128-bit half, as in
// packA16AVX2.
//
//go:noescape
func packLanes8AVX2(ap *float32, rows *[8]*float32, kb int)

// gemmPanels keeps the SIMD kernels' packed A panels between calls: a call
// takes one (or makes one when none is free) and gives it back, so no more
// panels exist than calls ever ran at once, and at most 64 are kept. A
// channel rather than a sync.Pool, which may drop what it is given — under
// the race detector at random — while the scorers' allocation tests hold
// Gemm to none with the detector on.
//
// The 32 KiB panel is not on the stack: there it would be zeroed on every
// call and grown onto every fresh sweep worker's stack, and packA writes
// every element a tile reads, so a reused panel needs no clearing.
var gemmPanels = make(chan *[gemmLanes * gemmKC]float32, 64)

func takePanel() *[gemmLanes * gemmKC]float32 {
	select {
	case panel := <-gemmPanels:
		return panel
	default:
		return new([gemmLanes * gemmKC]float32)
	}
}

func givePanel(panel *[gemmLanes * gemmKC]float32) {
	select {
	case gemmPanels <- panel:
	default:
	}
}

// gemmZeroRow stands in for the W rows a tile does not have. Never written.
var gemmZeroRow [gemmKC]float32

// gemmAVX2 is the gemmSIMD of AVX2 machines: every column. The last n&3
// columns — all of them when n < 4, which is a final FC cut down to its
// score behind other layers — run through the same 16×4 kernel with
// gemmZeroRow as the missing W rows, into the staging tile ct: the tile
// carries the partial sums from one K panel to the next, and only its live
// rows and columns are ever copied to C. The padded columns compute on zeros
// (0·Inf is a NaN the tile keeps to itself). The bias is added to C after
// the last panel.
func gemmAVX2(c, a, w, bias []float32, m, n, k int) {
	n4 := n &^ (gemmNR - 1)
	jr := n - n4
	panel := takePanel()
	defer givePanel(panel)
	ap := panel[:]
	var ct [gemmLanes * gemmNR]float32
	for i0 := 0; i0 < m; i0 += gemmLanes {
		mr := min(m-i0, gemmLanes)
		for k0 := 0; k0 < k; k0 += gemmKC {
			kb := min(k-k0, gemmKC)
			packA(ap[:kb*gemmLanes], a[i0*k+k0:], mr, k)
			for j := 0; j < n4; j += gemmNR {
				wj := w[j*k+k0:]
				gemmKernelAVX2(&c[i0*n+j], n, &ap[0], &wj[0], &wj[k], &wj[2*k], &wj[3*k], kb, mr, k0 == 0)
			}
			if jr > 0 {
				wr := [gemmNR]*float32{&gemmZeroRow[0], &gemmZeroRow[0], &gemmZeroRow[0], &gemmZeroRow[0]}
				for r := 0; r < jr; r++ {
					wr[r] = &w[(n4+r)*k+k0]
				}
				gemmKernelAVX2(&ct[0], gemmNR, &ap[0], wr[0], wr[1], wr[2], wr[3], kb, mr, k0 == 0)
			}
		}
		if jr > 0 {
			for l := 0; l < mr; l++ {
				copy(c[(i0+l)*n+n4:][:jr], ct[l*gemmNR:])
			}
		}
	}
	addBias(c, bias, m, n)
}

// gemmAVX512 is the gemmSIMD of AVX-512 machines. A product with n ≥ 8
// runs every column through the 16×8 ZMM tile, the last n&7 through a
// staging tile with gemmZeroRow as the missing W rows, exactly as gemmAVX2
// stages its last n&3; the bias is added in the tile on the last K panel.
// A product with n < 8 is gemmAVX2's whole: those are pack-bound, and the
// wider tile only pads more of them with zeros and ran them slower (DESIGN.md
// "Compute kernels" has the figures). So no product is split between the
// two kernels.
func gemmAVX512(c, a, w, bias []float32, m, n, k int) {
	if n < gemmNRZ {
		gemmAVX2(c, a, w, bias, m, n, k)
		return
	}
	n8 := n &^ (gemmNRZ - 1)
	jr := n - n8
	panel := takePanel()
	defer givePanel(panel)
	ap := panel[:]
	var (
		ct [gemmLanes * gemmNRZ]float32 // the last jr columns' tile
		bt [gemmNRZ]float32             // their bias, zero past jr
		wr [gemmNRZ]*float32
	)
	if bias != nil {
		copy(bt[:], bias[n8:])
	}
	for i0 := 0; i0 < m; i0 += gemmLanes {
		mr := min(m-i0, gemmLanes)
		for k0 := 0; k0 < k; k0 += gemmKC {
			kb := min(k-k0, gemmKC)
			withBias := bias != nil && k0+kb == k
			packA(ap[:kb*gemmLanes], a[i0*k+k0:], mr, k)
			for j := 0; j < n8; j += gemmNRZ {
				for r := range wr {
					wr[r] = &w[(j+r)*k+k0]
				}
				var bj *float32
				if withBias {
					bj = &bias[j]
				}
				gemmKernelAVX512(&c[i0*n+j], n, &ap[0], &wr, bj, kb, mr, k0 == 0)
			}
			if jr > 0 {
				for r := range wr {
					wr[r] = &gemmZeroRow[0]
					if r < jr {
						wr[r] = &w[(n8+r)*k+k0]
					}
				}
				var bj *float32
				if withBias {
					bj = &bt[0]
				}
				gemmKernelAVX512(&ct[0], gemmNRZ, &ap[0], &wr, bj, kb, mr, k0 == 0)
			}
		}
		if jr > 0 {
			for l := 0; l < mr; l++ {
				copy(c[(i0+l)*n+n8:][:jr], ct[l*gemmNRZ:])
			}
		}
	}
}

// packA writes the k-major panel of mr rows of a (row stride k floats,
// len(ap)/16 columns each): ap[p*16+l] = a[l*k+p], and zero for l ≥ mr. Full
// 16-row blocks take the assembly transposition for their columns below
// kb&^3; ragged blocks and the last kb&3 columns take the Go loops.
func packA(ap, a []float32, mr, k int) {
	p0 := 0
	if kb := len(ap) / gemmLanes; mr == gemmLanes && kb >= 4 {
		p0 = kb &^ 3
		packA16AVX2(&ap[0], &a[0], k, p0)
		if p0 == kb {
			return
		}
	}
	packARows(ap[p0*gemmLanes:], a[p0:], mr, k)
}

// packARows is packA in Go, for any mr.
func packARows(ap, a []float32, mr, k int) {
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
