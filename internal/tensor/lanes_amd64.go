package tensor

// The AVX2 side of GemmLanes (see lanes.go), installed by gemm_amd64.go's
// init beside the Gemm kernel. Compiled on amd64 only, by filename suffix.

// lanesGroup is the row count of one fused-kernel call: four blocks, eight
// YMM accumulators.
const lanesGroup = 4 * LaneRows

// lanesMulAVX2 writes out[l] = Σₚ fl(fl(q[p]·A[l][p])·w[p]) for the 64 rows
// l of four blocks b0–b3 (row l is lane l%16 of block l/16), p in [0, k) in
// increasing order. Per k step it broadcasts q[p] and w[p] and issues
// VMULPS, VMULPS, VADDPS per eight rows — never an FMA. k ≥ 1.
//
//go:noescape
func lanesMulAVX2(out, q, w, b0, b1, b2, b3 *float32, k int)

// lanesSubAVX2 is lanesMulAVX2 with the combine q[p] − A[l][p] (VSUBPS).
//
//go:noescape
func lanesSubAVX2(out, q, w, b0, b1, b2, b3 *float32, k int)

// gemmLanesAVX2 is the gemmLanesSIMD of AVX2 machines: the fused kernel
// once per column over 64-row groups. A group that runs past A's last block
// reads that block again in place of the missing ones, and only the live
// rows are copied to C, the bias added on the way. It is built for the
// narrow first layers — a one-neuron QCN, or a first FC cut to its score —
// and redoes the combine for every column, so wider products are left to
// Gemm (nn's narrow-layer rule sends them there).
func gemmLanesAVX2(c, q, a, w, bias []float32, m, n, k int, op LaneOp) {
	blk := LaneRows * k
	last := len(a)/blk - 1
	var out [lanesGroup]float32
	for i0 := 0; i0 < m; i0 += lanesGroup {
		b := i0 / LaneRows
		b0, b1, b2, b3 := &a[b*blk], &a[min(b+1, last)*blk], &a[min(b+2, last)*blk], &a[min(b+3, last)*blk]
		live := out[:min(m-i0, lanesGroup)]
		for j := 0; j < n; j++ {
			// Called directly, not through a func value, so out stays on the
			// stack (go:noescape only holds for a static call).
			if op == LaneSub {
				lanesSubAVX2(&out[0], &q[0], &w[j*k], b0, b1, b2, b3, k)
			} else {
				lanesMulAVX2(&out[0], &q[0], &w[j*k], b0, b1, b2, b3, k)
			}
			if bias == nil {
				for l, v := range live {
					c[(i0+l)*n+j] = v
				}
				continue
			}
			bj := bias[j]
			for l, v := range live {
				c[(i0+l)*n+j] = v + bj
			}
		}
	}
}
