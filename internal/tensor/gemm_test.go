package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/racetest"
)

// ordered maps a float32 onto a monotone integer line where adjacent
// representable values differ by 1 and +0/-0 coincide, so ULP distance is a
// plain subtraction.
func ordered(f float32) int64 {
	u := math.Float32bits(f)
	if u&0x80000000 != 0 {
		return -int64(u & 0x7fffffff)
	}
	return int64(u)
}

func ulpDiff(a, b float32) int64 {
	d := ordered(a) - ordered(b)
	if d < 0 {
		return -d
	}
	return d
}

func randSlice(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	return x
}

// TestGemmMatchesGemv: every row of Gemm's output is bit-identical to a
// Gemv over the same weights — across shapes that are not multiples of the
// register tile or the KC panel, with and without bias.
func TestGemmMatchesGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},
		{1, 7, 3},
		{3, 5, 7},
		{4, 4, 512},   // exact tile, exact KC panel
		{5, 9, 513},   // one past the KC panel
		{7, 2, 1030},  // two panels + ragged edges
		{64, 33, 129}, // MR-aligned rows, odd columns
		{33, 65, 700},
	}
	for _, sh := range shapes {
		for _, withBias := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%dx%d/bias=%v", sh.m, sh.n, sh.k, withBias), func(t *testing.T) {
				a := randSlice(rng, sh.m*sh.k)
				w := randSlice(rng, sh.n*sh.k)
				var bias []float32
				if withBias {
					bias = randSlice(rng, sh.n)
				}
				c := make([]float32, sh.m*sh.n)
				Gemm(c, a, w, bias, sh.m, sh.n, sh.k)
				sameBits(t, "Gemm", c, gemvRows(a, w, bias, sh.m, sh.n, sh.k), sh.n)
			})
		}
	}
}

// A gemmKernel is one way to compute a product. missing says why this
// machine cannot run it, empty when it can.
type gemmKernel struct {
	name    string
	run     func(c, a, w, bias []float32, m, n, k int)
	missing string
}

// simdGemmKernel is the gemmKernel that runs simd alone, missing (with the
// reason given) unless has.
func simdGemmKernel(name string, simd simdKernel, has bool, reason string) gemmKernel {
	kern := gemmKernel{name: name, run: func(c, a, w, bias []float32, m, n, k int) { gemm(c, a, w, bias, m, n, k, simd) }}
	if !has {
		kern.missing = reason
	}
	return kern
}

// gemmKernels are the ways a product can be computed: Gemm as dispatched,
// the portable kernel alone (every other platform's Gemm) and, on amd64,
// each SIMD kernel alone (gemm_amd64_test.go adds them), so a kernel that
// is not the one dispatched here is still proven wherever it can run.
var gemmKernels = []gemmKernel{
	{name: "dispatched", run: Gemm},
	simdGemmKernel("portable", nil, true, ""),
}

// gemmDispatched names the kernel behind Gemm on this machine.
var gemmDispatched = "portable"

// hostGemmKernels returns the gemmKernels this machine can run and logs the
// ones it cannot.
func hostGemmKernels(t testing.TB) []gemmKernel {
	var kerns []gemmKernel
	for _, kern := range gemmKernels {
		if kern.missing != "" {
			t.Logf("kernel %s not run: %s", kern.name, kern.missing)
			continue
		}
		kerns = append(kerns, kern)
	}
	return kerns
}

// gemvRows is the reference: one Gemv per row of A.
func gemvRows(a, w, bias []float32, m, n, k int) []float32 {
	ref := make([]float32, m*n)
	for i := 0; i < m; i++ {
		Gemv(ref[i*n:(i+1)*n], w, a[i*k:(i+1)*k], bias)
	}
	return ref
}

// sameBits fails unless got and want agree bit for bit wherever want is not
// NaN and are both NaN elsewhere (NaN payloads are not part of the contract).
// what names the case in the failure.
func sameBits(t *testing.T, what string, got, want []float32, n int) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if w != w {
			if g == g {
				t.Fatalf("%s: C[%d,%d] = %v, Gemv gives NaN", what, i/n, i%n, g)
			}
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: C[%d,%d] = %x, Gemv gives %x (%v vs %v)",
				what, i/n, i%n, math.Float32bits(g), math.Float32bits(w), g, w)
		}
	}
}

// TestGemmKernelsMatchGemv: every kernel the machine can run — and so each
// other — equals repeated Gemv bit for bit across the tile edges of each,
// with and without bias. The first grid has m around the 16-lane SIMD tile,
// n around the 4- and 8-column tiles and below them, k around the 512-float
// panel and across three panels; the second is the staging-tile path alone
// (n below the column tile) at the shapes it serves — k = 200, one to four
// full row tiles and their ragged neighbours, and K panels the staging tile
// has to carry partial sums across; the third puts m across the portable
// kernel's 256-row M block, once and twice (a multi-query sweep runs
// m = 512); the fourth is the 8-column tile's edges — n around one and two
// tiles and a wide product, ragged row blocks, and K past one panel so C
// and the staged tile are resumed.
func TestGemmKernelsMatchGemv(t *testing.T) {
	t.Logf("Gemm dispatches to: %s", gemmDispatched)
	kerns := hostGemmKernels(t)
	rng := rand.New(rand.NewSource(16))
	for _, grid := range []struct{ ms, ns, ks []int }{
		{[]int{1, 7, 15, 16, 17, 64, 65}, []int{1, 2, 3, 4, 5, 200, 256}, []int{1, 5, 511, 512, 513, 1257}},
		{[]int{1, 15, 16, 17, 63, 64, 65}, []int{1, 2, 3}, []int{1, 200, 511, 512, 513, 1025}},
		{[]int{255, 256, 257, 513}, []int{3, 4, 5}, []int{1, 33}},
		{[]int{1, 9, 15, 16, 33}, []int{7, 8, 9, 15, 16, 17, 300}, []int{3, 513, 1257}},
	} {
		for _, m := range grid.ms {
			for _, n := range grid.ns {
				for _, k := range grid.ks {
					a := randSlice(rng, m*k)
					w := randSlice(rng, n*k)
					for _, bias := range [][]float32{nil, randSlice(rng, n)} {
						ref := gemvRows(a, w, bias, m, n, k)
						for _, kern := range kerns {
							c := make([]float32, m*n)
							kern.run(c, a, w, bias, m, n, k)
							sameBits(t, fmt.Sprintf("%s %dx%dx%d bias=%v", kern.name, m, n, k, bias != nil), c, ref, n)
						}
					}
				}
			}
		}
	}
}

// TestGemmFreshGoroutines: for each kernel, 64 goroutines, each new and
// each starting from a ragged or a full row tile, run it at once, so pooled
// A panels are handed between goroutines and reused at other shapes; every
// product is the portable kernel's bit for bit. A panel two goroutines share
// shows up here as a wrong product (under -race as a data race).
func TestGemmFreshGoroutines(t *testing.T) {
	type shape struct{ m, n, k int }
	shapes := []shape{{1, 1, 200}, {7, 3, 700}, {16, 4, 512}, {17, 9, 513}, {64, 2, 64}, {33, 5, 1030}, {16, 8, 512}, {33, 17, 600}}
	rng := rand.New(rand.NewSource(32))
	type product struct {
		a, w, want []float32
		shape
	}
	products := make([]product, len(shapes))
	for i, s := range shapes {
		p := product{a: randSlice(rng, s.m*s.k), w: randSlice(rng, s.n*s.k), want: make([]float32, s.m*s.n), shape: s}
		gemm(p.want, p.a, p.w, nil, s.m, s.n, s.k, nil)
		products[i] = p
	}
	for _, kern := range hostGemmKernels(t) {
		t.Run(kern.name, func(t *testing.T) {
			errs := make(chan error, 64)
			for g := 0; g < 64; g++ {
				go func() {
					for i := range products {
						p := products[(g+i)%len(products)]
						c := make([]float32, p.m*p.n)
						kern.run(c, p.a, p.w, nil, p.m, p.n, p.k)
						for j := range c {
							if math.Float32bits(c[j]) != math.Float32bits(p.want[j]) {
								errs <- fmt.Errorf("goroutine %d, %dx%dx%d: C[%d] = %v, portable %v", g, p.m, p.n, p.k, j, c[j], p.want[j])
								return
							}
						}
					}
					errs <- nil
				}()
			}
			for g := 0; g < 64; g++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestGemmSpecialValues: signed zeros, denormals, infinities and NaNs go
// through every kernel exactly as through Gemv — same NaN positions, same
// bits everywhere else. The row counts leave SIMD lanes on zero padding,
// where 0·Inf makes a NaN the kernel must keep to itself.
func TestGemmSpecialValues(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), // largest denormal
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32,
	}
	rng := rand.New(rand.NewSource(17))
	salted := func(n, every int) []float32 {
		x := randSlice(rng, n)
		for i := range x {
			if rng.Intn(every) == 0 {
				x[i] = specials[rng.Intn(len(specials))]
			}
		}
		return x
	}
	kerns := hostGemmKernels(t)
	for _, sh := range []struct{ m, n, k int }{
		{7, 9, 5}, {16, 4, 64}, {17, 8, 513}, {33, 13, 1257}, {9, 16, 600},
		// Below the column tile the padded columns multiply A by zero too.
		{16, 1, 200}, {7, 3, 5}, {17, 1, 513}, {33, 2, 1257},
	} {
		// Dense specials poison nearly every output; sparse ones leave most
		// finite, which is where a wrong bit would show.
		for _, every := range []int{3, 400} {
			a := salted(sh.m*sh.k, every)
			w := salted(sh.n*sh.k, every)
			bias := salted(sh.n, every)
			ref := gemvRows(a, w, bias, sh.m, sh.n, sh.k)
			for _, kern := range kerns {
				t.Run(fmt.Sprintf("%s/%dx%dx%d/every=%d", kern.name, sh.m, sh.n, sh.k, every), func(t *testing.T) {
					c := make([]float32, sh.m*sh.n)
					kern.run(c, a, w, bias, sh.m, sh.n, sh.k)
					sameBits(t, kern.name, c, ref, sh.n)
				})
			}
		}
	}
}

// reluKernels are ReLU in Go alone and, on amd64, each SIMD kernel alone
// (gemm_amd64_test.go adds them), under gemmKernel's naming.
var reluKernels = []reluKernel{{name: "go"}}

type reluKernel struct {
	name    string
	simd    bool
	missing string
}

// TestReLUSpecialValues: ReLU tests the bits, not the float, so the edges of
// its range are pinned bit for bit against the float comparison it replaces:
// v < 0 becomes +0 (down to the smallest denormal and up to -Inf), and -0,
// +0, every positive value and NaNs of either sign come through untouched.
// Every kernel the machine can run is held to the rule, the table at every
// offset of an 8-float vector so each entry meets every lane and the tail.
func TestReLUSpecialValues(t *testing.T) {
	const posZero, negZero = 0x00000000, 0x80000000
	table := []struct {
		name     string
		in, want uint32
	}{
		{"+0", posZero, posZero},
		{"-0", negZero, negZero},
		{"smallest denormal", 0x00000001, 0x00000001},
		{"-smallest denormal", 0x80000001, posZero},
		{"-largest denormal", 0x807fffff, posZero},
		{"-smallest normal", 0x80800000, posZero},
		{"-1", 0xbf800000, posZero},
		{"-MaxFloat32", 0xff7fffff, posZero},
		{"-Inf", 0xff800000, posZero},
		{"-signalling NaN", 0xff800001, 0xff800001},
		{"-quiet NaN", 0xffc00000, 0xffc00000},
		{"-NaN, all ones", 0xffffffff, 0xffffffff},
		{"MaxFloat32", 0x7f7fffff, 0x7f7fffff},
		{"+Inf", 0x7f800000, 0x7f800000},
		{"signalling NaN", 0x7f800001, 0x7f800001},
		{"quiet NaN", 0x7fc00000, 0x7fc00000},
	}
	for _, kern := range reluKernels {
		t.Run(kern.name, func(t *testing.T) {
			if kern.missing != "" {
				t.Skip(kern.missing)
			}
			for off := 0; off < 8; off++ {
				x := make([]float32, off+len(table))
				for i, c := range table {
					x[off+i] = math.Float32frombits(c.in)
				}
				relu(x, kern.simd)
				for i, c := range table {
					if got := math.Float32bits(x[off+i]); got != c.want {
						t.Errorf("ReLU(%s = %#08x) at %d = %#08x, want %#08x", c.name, c.in, off+i, got, c.want)
					}
				}
			}
			// And against the comparison itself, over bit patterns from all
			// over.
			rng := rand.New(rand.NewSource(23))
			in := make([]float32, 1<<16+5)
			for i := range in {
				in[i] = math.Float32frombits(rng.Uint32())
			}
			out := append([]float32(nil), in...)
			relu(out, kern.simd)
			for i, v := range in {
				want := math.Float32bits(v)
				if v < 0 {
					want = posZero
				}
				if got := math.Float32bits(out[i]); got != want {
					t.Fatalf("ReLU(%#08x) = %#08x, want %#08x", math.Float32bits(v), got, want)
				}
			}
		})
	}
	t.Run("dispatched", func(t *testing.T) {
		// ReLU itself: whichever kernel init installed, on a short row.
		x := []float32{-1, 2, float32(math.Copysign(0, -1))}
		ReLU(x)
		if x[0] != 0 || x[1] != 2 || math.Float32bits(x[2]) != negZero {
			t.Fatalf("ReLU gives %v", x)
		}
	})
}

// TestGemmWritesOnlyC: C, A and W are sub-slices that start 4, 8 and 12
// bytes off their allocations (so never 16- or 32-byte aligned together),
// and C sits between guard words. Every kernel must produce the reference
// and leave every guard untouched — the SIMD tile is 16×4 or 16×8 but only
// m×n of it may reach memory, including on the K-panel resume that reads C
// back; past the last whole tile the columns are staged on the stack and
// only their live rows and columns are copied out.
func TestGemmWritesOnlyC(t *testing.T) {
	const guard = 32
	sentinel := math.Float32frombits(0xdeadbeef)
	rng := rand.New(rand.NewSource(18))
	offset := func(src []float32, off int) []float32 {
		buf := make([]float32, off+len(src))
		copy(buf[off:], src)
		return buf[off:]
	}
	for _, sh := range []struct{ m, n, k int }{
		{1, 4, 3}, {5, 7, 600}, {16, 8, 512}, {19, 6, 1100}, {31, 203, 70},
		{1, 1, 3}, {17, 1, 200}, {5, 3, 600}, {19, 2, 1100},
		{1, 9, 3}, {15, 17, 1100},
	} {
		a := randSlice(rng, sh.m*sh.k)
		w := randSlice(rng, sh.n*sh.k)
		bias := randSlice(rng, sh.n)
		ref := gemvRows(a, w, bias, sh.m, sh.n, sh.k)
		for _, kern := range hostGemmKernels(t) {
			t.Run(fmt.Sprintf("%s/%dx%dx%d", kern.name, sh.m, sh.n, sh.k), func(t *testing.T) {
				buf := make([]float32, guard+1+sh.m*sh.n+guard)
				for i := range buf {
					buf[i] = sentinel
				}
				c := buf[guard+1 : guard+1+sh.m*sh.n]
				kern.run(c, offset(a, 2), offset(w, 3), bias, sh.m, sh.n, sh.k)
				sameBits(t, kern.name, c, ref, sh.n)
				for i, v := range buf {
					if (i < guard+1 || i >= guard+1+sh.m*sh.n) && math.Float32bits(v) != 0xdeadbeef {
						t.Fatalf("guard word %d (C is [%d,%d)) overwritten with %x",
							i, guard+1, guard+1+sh.m*sh.n, math.Float32bits(v))
					}
				}
			})
		}
	}
}

// TestGemmDegenerate: zero-sized dimensions behave like repeated Gemv —
// k=0 reduces to the bias (or zero), m=0 and n=0 touch nothing.
func TestGemmDegenerate(t *testing.T) {
	bias := []float32{1, 2, 3}
	c := []float32{9, 9, 9, 9, 9, 9}
	Gemm(c, nil, nil, bias, 2, 3, 0)
	want := []float32{1, 2, 3, 1, 2, 3}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("k=0: C = %v, want %v", c, want)
		}
	}
	Gemm(nil, nil, randSlice(rand.New(rand.NewSource(1)), 6), nil, 0, 2, 3)
	Gemm(nil, randSlice(rand.New(rand.NewSource(1)), 6), nil, nil, 2, 0, 3)
}

// TestConv2DIm2colMatchesDirect: the im2col+GEMM lowering equals the direct
// convolution loop within 2 ULP (in practice exactly, up to the sign of a
// zero) across odd geometries: pad>0, stride>1, non-square kernels, channel
// counts that straddle the register tile.
func TestConv2DIm2colMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ h, w, c, k, r, s, stride, pad int }{
		{5, 5, 1, 1, 3, 3, 1, 0},
		{8, 6, 3, 5, 3, 3, 1, 1},     // pad > 0
		{9, 9, 4, 7, 3, 3, 2, 1},     // stride > 1 with pad
		{7, 11, 2, 3, 1, 5, 2, 2},    // non-square kernel, wide pad
		{32, 22, 16, 12, 3, 3, 1, 1}, // the ReId conv geometry
		{6, 6, 5, 4, 5, 5, 3, 0},     // stride 3
	}
	for _, cs := range cases {
		t.Run(fmt.Sprintf("h%dw%dc%dk%dr%ds%d-st%d-pad%d",
			cs.h, cs.w, cs.c, cs.k, cs.r, cs.s, cs.stride, cs.pad), func(t *testing.T) {
			in := randSlice(rng, cs.h*cs.w*cs.c)
			w := randSlice(rng, cs.k*cs.r*cs.s*cs.c)
			b := randSlice(rng, cs.k)
			rows, patch := Im2colLen(cs.h, cs.w, cs.r, cs.s, cs.c, cs.stride, cs.pad)
			direct := make([]float32, rows*cs.k)
			Conv2D(direct, in, w, b, cs.h, cs.w, cs.c, cs.k, cs.r, cs.s, cs.stride, cs.pad)
			lowered := make([]float32, rows*cs.k)
			col := make([]float32, rows*patch)
			Conv2DIm2col(lowered, in, w, b, col, cs.h, cs.w, cs.c, cs.k, cs.r, cs.s, cs.stride, cs.pad)
			for i := range direct {
				if d := ulpDiff(lowered[i], direct[i]); d > 2 {
					t.Fatalf("out[%d] = %v, direct gives %v (%d ULP apart)", i, lowered[i], direct[i], d)
				}
			}
		})
	}
}

// TestGemmAllocFree: the kernel allocates nothing — scratch is caller-owned,
// which is what lets the scan's steady state stay allocation-free.
func TestGemmAllocFree(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(3))
	a := randSlice(rng, 13*700)
	w := randSlice(rng, 9*700)
	bias := randSlice(rng, 9)
	c := make([]float32, 13*9)
	if n := testing.AllocsPerRun(10, func() { Gemm(c, a, w, bias, 13, 9, 700) }); n != 0 {
		t.Fatalf("Gemm allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(10, func() { Gemm(c[:13*2], a, w[:2*700], bias[:2], 13, 2, 700) }); n != 0 {
		t.Fatalf("Gemm below the column tile allocates %v times per call", n)
	}
	lanes := randSlice(rng, LanesLen(13, 700))
	for _, n := range []int{1, 9} {
		if allocs := testing.AllocsPerRun(10, func() {
			GemmLanes(c[:13*n], a[:700], lanes, w[:n*700], bias[:n], 13, n, 700, LaneSub)
		}); allocs != 0 {
			t.Fatalf("GemmLanes with %d columns allocates %v times per call", n, allocs)
		}
	}
	packed := make([][]float32, 13)
	for i := range packed {
		packed[i] = a[i*700:][:700]
	}
	if n := testing.AllocsPerRun(10, func() { PackLanes(lanes, packed, 700) }); n != 0 {
		t.Fatalf("PackLanes allocates %v times per call", n)
	}
	in := randSlice(rng, 8*6*3)
	cw := randSlice(rng, 5*3*3*3)
	cb := randSlice(rng, 5)
	rows, patch := Im2colLen(8, 6, 3, 3, 3, 1, 1)
	out := make([]float32, rows*5)
	col := make([]float32, rows*patch)
	if n := testing.AllocsPerRun(10, func() {
		Conv2DIm2col(out, in, cw, cb, col, 8, 6, 3, 5, 3, 3, 1, 1)
	}); n != 0 {
		t.Fatalf("Conv2DIm2col allocates %v times per call", n)
	}
}

// BenchmarkGemm runs the FC shapes of the Table 1 apps through every kernel
// the machine can run, by name, and reports ns per multiply-accumulate:
// TIR's 512-wide stack and its 2-output head (below the 4-column tile: the
// SIMD kernels stage it), TextQA at the scan batch and at a rerank-sized
// ragged one, ESTP's 8192-wide first layer (16 K panels per tile), and a
// one-neuron QCN over 200 dimensions — which is also TextQA's final FC cut
// to its score.
func BenchmarkGemm(b *testing.B) {
	kerns := hostGemmKernels(b)
	for _, sh := range []struct{ m, n, k int }{
		{64, 512, 512}, {64, 256, 512}, {64, 2, 256},
		{64, 200, 200}, {8, 200, 200},
		{64, 280, 8192},
		{64, 1, 200},
	} {
		rng := rand.New(rand.NewSource(1))
		a := randSlice(rng, sh.m*sh.k)
		w := randSlice(rng, sh.n*sh.k)
		bias := randSlice(rng, sh.n)
		c := make([]float32, sh.m*sh.n)
		for _, kern := range kerns {
			if kern.name == "dispatched" {
				continue // one of the named kernels
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", sh.m, sh.n, sh.k, kern.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					kern.run(c, a, w, bias, sh.m, sh.n, sh.k)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.m*sh.n*sh.k), "ns/mac")
			})
		}
	}
}
