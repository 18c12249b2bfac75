package tensor

import "fmt"

// The lanes kernel: a product whose A operand is resident in the SIMD
// kernel's own layout and is combined with a query on its way in. A query
// cache compares one query against every cached query (§4.6, Algorithm 1);
// the cached queries change only when an entry is inserted, so they are
// stored once in the layout the kernel streams, and each comparison is the
// combine (q ∘ A[i]) and the first FC layer's dot products in one pass —
// no gather, no combined rows, no pack. A batch of features that are not
// resident is packed into the layout once (PackLanes) and then shared by
// every query scored against it.
//
// The arithmetic is Gemm's contract with the combine in front: for every
// output, increasing p, one float32 rounding for the combine, one for the
// product and one for the sum, the bias added after the reduction. That is
// exactly what Network.combine followed by Gemm computes, so the scores are
// bit-identical to the gather path's.
//
// Two kernels, one entry point, as for Gemm: gemmLanesSIMD on amd64 with
// AVX2, gemmLanesPortable everywhere else and as the tests' reference.

// LaneRows is the row count of one block of a lanes operand. Row i, column p
// of an m×k lanes operand is element (i/LaneRows)·LaneRows·k + p·LaneRows +
// i%LaneRows: blocks of LaneRows rows, each block k-major — the panel packA
// writes for the AVX2 Gemm.
const LaneRows = 16

// LanesLen returns the length of an m×k lanes operand: whole blocks.
func LanesLen(m, k int) int { return (m + LaneRows - 1) / LaneRows * LaneRows * k }

// PackLanes writes rows, m = len(rows) vectors of k elements, into a as an
// m×k lanes operand: row i, column p goes to a[(i/LaneRows)·LaneRows·k +
// p·LaneRows + i%LaneRows]. a must have LanesLen(m, k) elements. The lanes
// of the last block past m keep what they held: GemmLanes reads them and
// never lets them reach C.
func PackLanes(a []float32, rows [][]float32, k int) {
	m := len(rows)
	if k < 0 {
		panic(fmt.Sprintf("tensor: lanes row length %d negative", k))
	}
	if len(a) != LanesLen(m, k) {
		panic(fmt.Sprintf("tensor: lanes A length %d != %d for %d×%d", len(a), LanesLen(m, k), m, k))
	}
	for i, r := range rows {
		if len(r) != k {
			panic(fmt.Sprintf("tensor: lanes row %d has %d elements, want %d", i, len(r), k))
		}
	}
	packLanes(a, rows, k, packLanesSIMD)
}

// packLanesSIMD is set once at init where packLanes8AVX2 may run; a flag
// and a direct call, as for reluSIMD, keep the row-pointer array on the
// stack.
var packLanesSIMD bool

// packLanes is PackLanes after validation, with the kernel as a flag so the
// tests can run the Go loops alone on any machine. With the kernel, every
// eight rows of a block take it for their columns below k&^3; the Go loops
// take the rest.
func packLanes(a []float32, rows [][]float32, k int, simd bool) {
	if k == 0 {
		return
	}
	for i0 := 0; i0 < len(rows); i0 += LaneRows {
		blk, live := a[i0*k:][:LaneRows*k], rows[i0:min(i0+LaneRows, len(rows))]
		l, p0 := 0, 0
		if simd && k >= 4 {
			p0 = k &^ 3
			for ; l+8 <= len(live); l += 8 {
				r := live[l : l+8]
				ptrs := [8]*float32{&r[0][0], &r[1][0], &r[2][0], &r[3][0], &r[4][0], &r[5][0], &r[6][0], &r[7][0]}
				packLanes8AVX2(&blk[l], &ptrs, p0)
			}
		}
		if p0 < k {
			packLanesRows(blk[p0*LaneRows:], live[:l], p0, k)
		}
		packLanesRows(blk[l:], live[l:], 0, k)
	}
}

// packLanesRows writes columns [p0, k) of rows into a lanes block whose
// column p0, lane 0 is blk[0]: row l, column p goes to blk[(p-p0)·16 + l].
func packLanesRows(blk []float32, rows [][]float32, p0, k int) {
	l := 0
	for ; l+4 <= len(rows); l += 4 {
		// Four rows at a time: one 16-byte run per column, as packARows.
		r0 := rows[l][p0:k]
		r1 := rows[l+1][p0:k]
		r2 := rows[l+2][p0:k]
		r3 := rows[l+3][p0:k]
		dst := blk[l:]
		for p := range r0 {
			d := dst[p*LaneRows:][:4]
			d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
		}
	}
	for ; l < len(rows); l++ {
		dst := blk[l:]
		for p, v := range rows[l][p0:k] {
			dst[p*LaneRows] = v
		}
	}
}

// LaneOp is the element-wise operation GemmLanes applies between the query
// and each row of A.
type LaneOp int

const (
	LaneMul LaneOp = iota // q[p] · A[i][p], a Hadamard combine
	LaneSub               // q[p] − A[i][p], a subtract combine
)

// A lanesKernel computes GemmLanes, bias included. m, n, k ≥ 1.
type lanesKernel func(c, q, a, w, bias []float32, m, n, k int, op LaneOp)

// gemmLanesSIMD is the platform's lanes kernel, nil when it has none. Set
// once at init.
var gemmLanesSIMD lanesKernel

// GemmLanes computes C[i][j] = Σₚ fl(fl(q[p] ∘ A[i][p]) · W[j][p]) + bias[j]
// for i < m, j < n, where ∘ is op: q has length k, A is an m×k lanes operand
// (LanesLen(m, k) elements; rows past m in its last block are read and never
// reach C), W is n×k row-major as for Gemm, C is m×n row-major and bias
// (optional, may be nil) has length n. Row i of C equals Gemm over the one
// row q ∘ A[i] bit for bit.
func GemmLanes(c, q, a, w, bias []float32, m, n, k int, op LaneOp) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("tensor: lanes dims %d×%d×%d negative", m, n, k))
	}
	if op != LaneMul && op != LaneSub {
		panic(fmt.Sprintf("tensor: unknown lane op %d", int(op)))
	}
	if len(q) != k {
		panic(fmt.Sprintf("tensor: lanes query length %d != %d", len(q), k))
	}
	if len(a) != LanesLen(m, k) {
		panic(fmt.Sprintf("tensor: lanes A length %d != %d for %d×%d", len(a), LanesLen(m, k), m, k))
	}
	if len(w) != n*k {
		panic(fmt.Sprintf("tensor: lanes W length %d != %d*%d", len(w), n, k))
	}
	if len(c) != m*n {
		panic(fmt.Sprintf("tensor: lanes C length %d != %d*%d", len(c), m, n))
	}
	if bias != nil && len(bias) != n {
		panic(fmt.Sprintf("tensor: lanes bias length %d != %d", len(bias), n))
	}
	lanesGemm(c, q, a, w, bias, m, n, k, op, gemmLanesSIMD)
}

// lanesGemm is GemmLanes after validation, with the SIMD kernel as a
// parameter so the tests can run the portable kernel alone on any machine.
func lanesGemm(c, q, a, w, bias []float32, m, n, k int, op LaneOp, simd lanesKernel) {
	switch {
	case k == 0:
		clear(c)
		addBias(c, bias, m, n)
	case m == 0 || n == 0:
	case simd != nil:
		simd(c, q, a, w, bias, m, n, k, op)
	default:
		gemmLanesPortable(c, q, a, w, m, n, k, op)
		addBias(c, bias, m, n)
	}
}

// gemmLanesPortable computes the un-biased product one block and one output
// column at a time: the block's LaneRows rows accumulate side by side in
// increasing p, every combine, product and sum rounded to float32 (the
// conversions forbid a fused multiply-add), and only the live rows are
// written.
func gemmLanesPortable(c, q, a, w []float32, m, n, k int, op LaneOp) {
	var acc [LaneRows]float32
	for i0 := 0; i0 < m; i0 += LaneRows {
		blk := a[i0*k:][:LaneRows*k]
		live := min(m-i0, LaneRows)
		for j := 0; j < n; j++ {
			acc = [LaneRows]float32{}
			for p, wp := range w[j*k:][:k] {
				qp, col := q[p], blk[p*LaneRows:][:LaneRows]
				if op == LaneSub {
					for l, x := range col {
						acc[l] += float32(float32(qp-x) * wp)
					}
				} else {
					for l, x := range col {
						acc[l] += float32(float32(qp*x) * wp)
					}
				}
			}
			for l, v := range acc[:live] {
				c[(i0+l)*n+j] = v
			}
		}
	}
}
