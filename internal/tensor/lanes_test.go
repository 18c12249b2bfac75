package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// toLanes stores the m×k row-major rows a as a lanes operand, with every
// padding lane of the last block set to pad.
func toLanes(a []float32, m, k int, pad float32) []float32 {
	lanes := make([]float32, LanesLen(m, k))
	for i := range lanes {
		lanes[i] = pad
	}
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			lanes[i/LaneRows*LaneRows*k+p*LaneRows+i%LaneRows] = a[i*k+p]
		}
	}
	return lanes
}

// combinedRows is the gather path GemmLanes replaces: row i is q ∘ a[i], one
// IEEE operation per element.
func combinedRows(q, a []float32, m, k int, op LaneOp) []float32 {
	rows := make([]float32, m*k)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			if op == LaneSub {
				rows[i*k+p] = q[p] - a[i*k+p]
			} else {
				rows[i*k+p] = q[p] * a[i*k+p]
			}
		}
	}
	return rows
}

// lanesKernels are GemmLanes as dispatched and the portable kernel alone.
var lanesKernels = []struct {
	name string
	run  func(c, q, a, w, bias []float32, m, n, k int, op LaneOp)
}{
	{"dispatched", GemmLanes},
	{"portable", func(c, q, a, w, bias []float32, m, n, k int, op LaneOp) {
		lanesGemm(c, q, a, w, bias, m, n, k, op, nil)
	}},
}

// TestGemmLanesMatchesGemm: both lanes kernels equal Gemm over the combined
// rows — and so each other — bit for bit, with NaN in the same places, for
// both ops, row counts around the 16-row block and the 64-row fused group,
// one to nine columns, and K from 1 past 1 024. Every input is salted with signed zeros, denormals,
// infinities and NaNs (sparsely on the whole grid, densely on its small
// corner), the padding lanes of A's last block hold NaN or Inf — stale rows
// that must never reach C — and C sits between guard words.
func TestGemmLanesMatchesGemm(t *testing.T) {
	t.Logf("SIMD lanes kernel installed: %v", gemmLanesSIMD != nil)
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewSource(27))
	salted := func(n, every int) []float32 {
		x := randSlice(rng, n)
		for i := range x {
			if rng.Intn(every) == 0 {
				x[i] = specials[rng.Intn(len(specials))]
			}
		}
		return x
	}
	const guard = 8
	sentinel := math.Float32frombits(0xdeadbeef)
	cell := 0
	for _, m := range []int{1, 15, 16, 17, 63, 64, 65, 1061} {
		for _, n := range []int{1, 2, 3, 4, 5, 9} {
			for _, k := range []int{1, 3, 4, 200, 511, 512, 513, 1030} {
				for _, op := range []LaneOp{LaneMul, LaneSub} {
					cell++
					every := 300
					if m <= 17 && k <= 200 {
						every = 3
					}
					q, a, w, bias := salted(k, every), salted(m*k, every), salted(n*k, every), salted(n, every)
					if cell%2 == 0 {
						bias = nil
					}
					pad := float32(math.NaN())
					if cell%3 == 0 {
						pad = float32(math.Inf(-1))
					}
					lanes := toLanes(a, m, k, pad)
					ref := make([]float32, m*n)
					Gemm(ref, combinedRows(q, a, m, k, op), w, bias, m, n, k)
					for _, kern := range lanesKernels {
						buf := make([]float32, guard+m*n+guard)
						for i := range buf {
							buf[i] = sentinel
						}
						c := buf[guard : guard+m*n]
						kern.run(c, q, lanes, w, bias, m, n, k, op)
						what := fmt.Sprintf("%s %dx%dx%d op=%d bias=%v", kern.name, m, n, k, op, bias != nil)
						sameBits(t, what, c, ref, n)
						for i, v := range buf {
							if (i < guard || i >= guard+m*n) && math.Float32bits(v) != 0xdeadbeef {
								t.Fatalf("%s: guard word %d overwritten with %x", what, i, math.Float32bits(v))
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmLanesValidation: every operand length, negative dimensions and an
// unknown op panic; k = 0 writes the bias like Gemm, and m = 0 or n = 0
// touch nothing.
func TestGemmLanesValidation(t *testing.T) {
	q, w, bias := make([]float32, 3), make([]float32, 2*3), make([]float32, 2)
	a := make([]float32, LanesLen(5, 3))
	c := make([]float32, 5*2)
	for name, call := range map[string]func(){
		"negative": func() { GemmLanes(c, q, a, w, bias, -1, 2, 3, LaneMul) },
		"op":       func() { GemmLanes(c, q, a, w, bias, 5, 2, 3, LaneOp(2)) },
		"q":        func() { GemmLanes(c, q[:2], a, w, bias, 5, 2, 3, LaneMul) },
		"a":        func() { GemmLanes(c, q, a[:5*3], w, bias, 5, 2, 3, LaneMul) },
		"w":        func() { GemmLanes(c, q, a, w[:3], bias, 5, 2, 3, LaneMul) },
		"c":        func() { GemmLanes(c[:9], q, a, w, bias, 5, 2, 3, LaneMul) },
		"bias":     func() { GemmLanes(c, q, a, w, bias[:1], 5, 2, 3, LaneMul) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	c = []float32{9, 9, 9, 9}
	GemmLanes(c, nil, nil, nil, []float32{1, 2}, 2, 2, 0, LaneSub)
	if c[0] != 1 || c[1] != 2 || c[2] != 1 || c[3] != 2 {
		t.Errorf("k=0: C = %v, want the bias per row", c)
	}
	GemmLanes(nil, q, nil, w, nil, 0, 2, 3, LaneMul)
	GemmLanes(nil, q, a, nil, nil, 5, 0, 3, LaneMul)
}

// TestPackLanes: PackLanes, with the SIMD kernel where the machine has one
// and with the Go loops alone, puts every element of every row — specials
// included — where toLanes puts it, at every ragged row count and column
// count around the kernel's 8-row and 4-column steps, and leaves the
// padding lanes of the last block as they were.
func TestPackLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)),
		float32(math.Inf(-1)), float32(math.NaN()), math.Float32frombits(1)}
	sentinel := math.Float32frombits(0x7fa5a5a5)
	kernels := []bool{false}
	if packLanesSIMD {
		kernels = append(kernels, true)
	}
	for _, m := range []int{0, 1, 7, 8, 9, 15, 16, 17, 24, 31, 33, 64, 65, 130} {
		for _, k := range []int{0, 1, 3, 4, 5, 8, 11, 200, 203} {
			flat := randSlice(rng, m*k)
			for i := range flat {
				if rng.Intn(7) == 0 {
					flat[i] = specials[rng.Intn(len(specials))]
				}
			}
			rows := make([][]float32, m)
			for i := range rows {
				rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
			}
			want := toLanes(flat, m, k, sentinel)
			for _, simd := range kernels {
				got := make([]float32, LanesLen(m, k))
				for i := range got {
					got[i] = sentinel
				}
				packLanes(got, rows, k, simd)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("m=%d k=%d simd=%v: element %d = %x, want %x",
							m, k, simd, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestPackLanesValidation: a wrong operand length, a row of the wrong
// length and a negative k panic.
func TestPackLanesValidation(t *testing.T) {
	rows := [][]float32{make([]float32, 3), make([]float32, 3)}
	a := make([]float32, LanesLen(2, 3))
	for name, call := range map[string]func(){
		"a":        func() { PackLanes(a[:5], rows, 3) },
		"row":      func() { PackLanes(a, [][]float32{rows[0], rows[1][:2]}, 3) },
		"negative": func() { PackLanes(a, nil, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
