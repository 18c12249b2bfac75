package tensor

import "fmt"

// Batched matrix kernels. The SCN scan is GEMM-shaped work (§2–§3: FC and
// CONV MACs over every database feature), and the paper's accelerator runs it
// on an output-stationary systolic array: each PE owns one output and
// accumulates its K products in order while operands are broadcast along
// rows and columns. Gemm is the host-side counterpart, and every kernel
// behind it keeps that dataflow — parallelism is always across output
// elements, never across k.
//
// The arithmetic contract (see DESIGN.md "Compute kernels"): each C[i][j] is
//
//	((((0 + a₀w₀) + a₁w₁) + …) + b)
//
// in increasing-k order with one float32 rounding per multiply and one per
// add, and the bias added after the full reduction. Gemv, Conv2D and
// every kernel here implement exactly that, so they agree bit for bit on
// finite inputs (and on which outputs are NaN). The Go kernels spell every
// product float32(a*b): the spec lets a compiler fuse x*y+z into one
// rounding unless the product is explicitly converted — gc does on arm64 and
// may under GOAMD64=v3 — and a fused tail column beside an unfused SIMD
// column would split one Gemm call across two roundings.
//
// Three kernels, one entry point, and every Gemm call runs on exactly one of
// them — the machine's SIMD kernel (on AVX-512 machines, picked by the
// product's width) or, where it has none, the portable one:
//
//   - gemmSIMD (amd64 with AVX2, set at init from CPUID; nil elsewhere)
//     puts 16 rows of A in the SIMD lanes. Each call packs a 16-row block of
//     A into a k-major panel (ap[p*16+l] = A[i0+l][k0+p], zero rows past m;
//     gemmKC·16 floats = 32 KiB of scratch; full blocks are transposed in
//     registers, four columns of sixteen rows at a time).
//     On AVX2 (gemmAVX2), for every group of 4 W rows it broadcasts
//     W[j+r][p] and issues VMULPS then VADDPS into 8 YMM accumulators — a
//     16×4 tile of C, 64 MACs per k step. No FMA: fusing drops the
//     product's rounding and would break the contract. The last n&3
//     columns — all of them when n < 4: a final FC cut down to its score
//     behind other layers (nn's live outputs) — are one more tile whose
//     missing W rows are a shared row of zeros and whose C is a 16×4
//     staging tile on the stack; the tile holds the partial sums across K
//     panels and only its live rows and columns are copied out. The lanes
//     are still output rows, so a narrow product costs a pack and a partly
//     idle tile instead of a scalar loop.
//     On AVX-512F (gemmAVX512, when the OS also saves the ZMM state) a
//     product with n ≥ 8 loads each panel row into one ZMM and issues, per
//     column of a 16×8 tile, VMULPS with the W element broadcast from
//     memory then VADDPS — 128 MACs per k step — with the same staged tile
//     for the last n&7 columns and the bias added in the tile after the
//     last panel. A product with n < 8 is gemmAVX2's, which ran those
//     pack-bound shapes faster than the wider tile.
//     Packing A costs m·k moves against m·n·k MACs, and W is read in Gemv's
//     own layout, so nothing is cached or duplicated and callers that
//     rewrite weights cannot go stale.
//   - gemmPortable (pure Go, every platform) holds a 2×4 tile of C in eight
//     scalar accumulators, with a scalar loop for ragged tile edges. It is
//     Gemm where there is no AVX2, the reference the tests compare
//     against, and — at int8 operands and int32 sums — GemmInt8's kernel.
//
// All cut K into gemmKC-element panels and resume each output from its
// stored partial sum, which keeps the single-accumulator order.
const (
	gemmMR = 2   // A rows per portable micro-tile
	gemmNR = 4   // W rows (C columns) per portable and AVX2 micro-tile
	gemmKC = 512 // K panel (floats) kept hot in L1
	gemmMC = 256 // M block over which the portable kernel reuses a W panel
)

// A simdKernel computes C = A·Wᵀ + bias (bias may be nil). m, n, k ≥ 1.
type simdKernel func(c, a, w, bias []float32, m, n, k int)

// gemmSIMD is the platform's SIMD kernel, nil when it has none. Set once at
// init.
var gemmSIMD simdKernel

// Gemm computes C = A·Wᵀ + bias: A is m×k row-major (one activation row per
// batched feature), W is n×k row-major (one weight row per output, the same
// layout Gemv takes), C is m×n row-major, and bias (optional, may be nil)
// has length n. Row i of C equals Gemv(W, row i of A, bias) bit for bit.
func Gemm(c, a, w, bias []float32, m, n, k int) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("tensor: gemm dims %d×%d×%d negative", m, n, k))
	}
	if len(a) != m*k {
		panic(fmt.Sprintf("tensor: gemm A length %d != %d*%d", len(a), m, k))
	}
	if len(w) != n*k {
		panic(fmt.Sprintf("tensor: gemm W length %d != %d*%d", len(w), n, k))
	}
	if len(c) != m*n {
		panic(fmt.Sprintf("tensor: gemm C length %d != %d*%d", len(c), m, n))
	}
	if bias != nil && len(bias) != n {
		panic(fmt.Sprintf("tensor: gemm bias length %d != %d", len(bias), n))
	}
	gemm(c, a, w, bias, m, n, k, gemmSIMD)
}

// gemm is Gemm after validation, with the SIMD kernel as a parameter so the
// tests can run the portable kernel alone (simd nil) on any machine.
func gemm(c, a, w, bias []float32, m, n, k int, simd simdKernel) {
	switch {
	case k == 0:
		// No reduction: Gemv would write bias (or zero) directly.
		clear(c)
	case m == 0 || n == 0:
		return // no outputs
	case simd != nil:
		simd(c, a, w, bias, m, n, k)
		return
	default:
		gemmPortable(c, a, w, m, n, k)
	}
	addBias(c, bias, m, n)
}

// addBias adds bias (nil: nothing) to every row of the m×n product c, after
// the full reduction as the contract requires.
func addBias(c, bias []float32, m, n int) {
	if bias == nil {
		return
	}
	for i := 0; i < m; i++ {
		row := c[i*n : (i+1)*n]
		for j, b := range bias {
			row[j] += b
		}
	}
}

// A gemmOperand is an element type the portable kernel multiplies and a
// gemmAccum one it sums into. The kernel runs at two pairs only: (float32,
// float32) for Gemm and (int8, int32) for GemmInt8.
type (
	gemmOperand interface{ float32 | int8 }
	gemmAccum   interface{ float32 | int32 }
)

// gemmPortable computes the un-biased product c = a·wᵀ: K panels of gemmKC,
// M blocks of gemmMC, 2×4 tiles of C and a scalar loop for ragged tile edges.
func gemmPortable[E gemmOperand, S gemmAccum](c []S, a, w []E, m, n, k int) {
	for k0 := 0; k0 < k; k0 += gemmKC {
		kb := min(k-k0, gemmKC)
		first := k0 == 0
		for i0 := 0; i0 < m; i0 += gemmMC {
			mb := min(m-i0, gemmMC)
			for i := i0; i < i0+mb; i += gemmMR {
				ir := min(i0+mb-i, gemmMR)
				for j := 0; j < n; j += gemmNR {
					jr := min(n-j, gemmNR)
					if ir == gemmMR && jr == gemmNR {
						gemm2x4(c, a, w, i, j, k0, kb, n, k, first)
					} else {
						gemmTail(c, a, w, i, j, ir, jr, k0, kb, n, k, first)
					}
				}
			}
		}
	}
}

// gemm2x4 is the portable register micro-kernel: a 2×4 tile of C accumulated
// over one K panel. The eight accumulators live in registers across the k
// loop, so each k step issues 8 MACs for 6 loads and the reduction chains
// stay independent (vs Gemv's single serial chain). Each product is
// converted to the accumulator type, which is what keeps a compiler from
// fusing it into the add; integer sums are exact either way.
func gemm2x4[E gemmOperand, S gemmAccum](c []S, a, w []E, i, j, k0, kb, n, k int, first bool) {
	a0 := a[i*k+k0 : i*k+k0+kb]
	// Reslicing every operand to a0's length lets the compiler eliminate
	// the bounds checks inside the hot loop (p ranges over a0, and each
	// slice's length provably equals len(a0)).
	a1 := a[(i+1)*k+k0:][:len(a0)]
	w0 := w[j*k+k0:][:len(a0)]
	w1 := w[(j+1)*k+k0:][:len(a0)]
	w2 := w[(j+2)*k+k0:][:len(a0)]
	w3 := w[(j+3)*k+k0:][:len(a0)]
	var c00, c01, c02, c03 S
	var c10, c11, c12, c13 S
	if !first {
		r0 := c[i*n+j:]
		r1 := c[(i+1)*n+j:]
		c00, c01, c02, c03 = r0[0], r0[1], r0[2], r0[3]
		c10, c11, c12, c13 = r1[0], r1[1], r1[2], r1[3]
	}
	for p := range a0 {
		av0, av1 := S(a0[p]), S(a1[p])
		wv0, wv1, wv2, wv3 := S(w0[p]), S(w1[p]), S(w2[p]), S(w3[p])
		c00 += S(av0 * wv0)
		c01 += S(av0 * wv1)
		c02 += S(av0 * wv2)
		c03 += S(av0 * wv3)
		c10 += S(av1 * wv0)
		c11 += S(av1 * wv1)
		c12 += S(av1 * wv2)
		c13 += S(av1 * wv3)
	}
	r0 := c[i*n+j:]
	r1 := c[(i+1)*n+j:]
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
}

// gemmTail handles the ragged edges of non-multiple-of-4 tiles with the same
// sequential per-output accumulation order as the micro-kernel.
func gemmTail[E gemmOperand, S gemmAccum](c []S, a, w []E, i, j, ir, jr, k0, kb, n, k int, first bool) {
	for r := 0; r < ir; r++ {
		arow := a[(i+r)*k+k0 : (i+r)*k+k0+kb]
		for cn := 0; cn < jr; cn++ {
			wrow := w[(j+cn)*k+k0:][:len(arow)]
			var s S
			if !first {
				s = c[(i+r)*n+j+cn]
			}
			for p := range arow {
				s += S(S(arow[p]) * S(wrow[p]))
			}
			c[(i+r)*n+j+cn] = s
		}
	}
}

// Im2colLen returns the patch-matrix dimensions of a convolution: rows
// (output positions OH·OW) and the length of each patch row (R·S·C).
func Im2colLen(h, w, r, s, c, stride, pad int) (rows, patch int) {
	return ConvOutput(h, r, stride, pad) * ConvOutput(w, s, stride, pad), r * s * c
}

// Im2col lowers an H×W×C input to the (OH·OW)×(R·S·C) patch matrix: row
// (oy·OW+ox) holds the receptive field of output position (oy, ox) in
// (ry, rx, ch) order, with out-of-bounds (padding) taps written as zero.
// The layout matches Conv weights K×(R·S·C), so the convolution becomes
// Gemm(out, col, w, b, OH·OW, K, R·S·C).
func Im2col(col, in []float32, h, w, c, r, s, stride, pad int) {
	oh := ConvOutput(h, r, stride, pad)
	ow := ConvOutput(w, s, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic("tensor: im2col produces empty output")
	}
	if len(in) != h*w*c {
		panic(fmt.Sprintf("tensor: im2col input length %d != %d", len(in), h*w*c))
	}
	if len(col) != oh*ow*r*s*c {
		panic(fmt.Sprintf("tensor: im2col patch length %d != %d", len(col), oh*ow*r*s*c))
	}
	idx := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ry := 0; ry < r; ry++ {
				iy := oy*stride + ry - pad
				if iy < 0 || iy >= h {
					zeroFill(col[idx : idx+s*c])
					idx += s * c
					continue
				}
				for rx := 0; rx < s; rx++ {
					ix := ox*stride + rx - pad
					if ix < 0 || ix >= w {
						zeroFill(col[idx : idx+c])
					} else {
						copy(col[idx:idx+c], in[(iy*w+ix)*c:(iy*w+ix)*c+c])
					}
					idx += c
				}
			}
		}
	}
}

func zeroFill(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Conv2DIm2col performs the same convolution as Conv2D by lowering the input
// to a patch matrix (in col, caller-owned scratch of Im2colLen size) and
// running one Gemm, turning the per-position dot products into cache-blocked
// matrix compute. The patch row order (ry, rx, ch) matches Conv2D's
// accumulation order; padding taps contribute exact ±0 terms, so results
// equal the direct loop's (identical non-zero reduction order — any
// difference is confined to the sign of a zero, which compares equal).
func Conv2DIm2col(out, in, w, b, col []float32, h, wd, c, k, r, s, stride, pad int) {
	rows, patch := Im2colLen(h, wd, r, s, c, stride, pad)
	if len(w) != k*patch {
		panic(fmt.Sprintf("tensor: conv2d weight length %d != %d", len(w), k*patch))
	}
	if len(out) != rows*k {
		panic(fmt.Sprintf("tensor: conv2d output length %d != %d", len(out), rows*k))
	}
	Im2col(col, in, h, wd, c, r, s, stride, pad)
	Gemm(out, col, w, b, rows, k, patch)
}
