package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The amd64 kernels join the test lists by name; one the host lacks is
// listed with the reason and logged, never run.
func init() {
	gemmKernels = append(gemmKernels,
		simdGemmKernel("avx2", gemmAVX2, hasAVX2(), "no AVX2 on this machine"),
		simdGemmKernel("avx512", gemmAVX512, hasAVX512(), "no AVX-512F (or no ZMM state saved) on this machine"))
	switch {
	case hasAVX512():
		gemmDispatched = "avx512 (avx2 below 8 columns)"
	case hasAVX2():
		gemmDispatched = "avx2"
	}
	avx := reluKernel{name: "avx", simd: true}
	if !hasAVX2() {
		avx.missing = "no AVX2 on this machine"
	}
	reluKernels = append(reluKernels, avx)
}

// TestPackAMatchesGo: packA — the assembly transposition where it applies,
// the Go loops for the rest — writes exactly the panel packARows writes, for
// every row count of a tile, panel widths around the four columns one
// assembly step moves, and a row stride wider than the panel.
func TestPackAMatchesGo(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(26))
	for mr := 1; mr <= gemmLanes; mr++ {
		for _, kb := range []int{1, 3, 4, 5, 8, 200, 511, 512} {
			for _, k := range []int{kb, kb + 7} {
				a := randSlice(rng, gemmLanes*k+1)[1:]
				got := make([]float32, kb*gemmLanes)
				want := make([]float32, kb*gemmLanes)
				for i := range got {
					got[i], want[i] = float32(math.NaN()), float32(math.NaN())
				}
				packA(got, a, mr, k)
				packARows(want, a, mr, k)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("mr=%d kb=%d k=%d: ap[%d] (column %d, lane %d) = %v, Go packs %v",
							mr, kb, k, i, i/gemmLanes, i%gemmLanes, got[i], want[i])
					}
				}
			}
		}
	}
}
