package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// elemOps pairs each element-wise entry point with the scalar expression it
// must reproduce and the Go-only form of itself.
var elemOps = []struct {
	name     string
	run      func(dst, a, b []float32)
	portable func(dst, a, b []float32)
	scalar   func(a, b float32) float32
}{
	{"Mul", Mul, func(dst, a, b []float32) { mul(dst, a, b, nil) }, func(a, b float32) float32 { return a * b }},
	{"Sub", Sub, func(dst, a, b []float32) { sub(dst, a, b, nil) }, func(a, b float32) float32 { return a - b }},
}

// TestElementwiseMatchesScalar: Mul and Sub, as dispatched and in Go alone,
// give the scalar loop's bits on lengths around the 8-float vector (none, a
// tail alone, whole vectors, vectors and a tail), on operands that start off
// any 32-byte boundary, and on special values — and write nothing past dst.
func TestElementwiseMatchesScalar(t *testing.T) {
	t.Logf("SIMD kernels installed: %v", mulSIMD != nil && subSIMD != nil)
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32,
	}
	sentinel := math.Float32frombits(0xdeadbeef)
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{0, 1, 7, 8, 9, 200, 513} {
		for _, every := range []int{0, 3} {
			a, b := randSlice(rng, n+3)[3:], randSlice(rng, n+1)[1:]
			for i := 0; every > 0 && i < n; i++ {
				if rng.Intn(every) == 0 {
					a[i] = specials[rng.Intn(len(specials))]
				}
				if rng.Intn(every) == 0 {
					b[i] = specials[rng.Intn(len(specials))]
				}
			}
			for _, op := range elemOps {
				want := make([]float32, n)
				for i := range want {
					want[i] = op.scalar(a[i], b[i])
				}
				for kind, run := range map[string]func(dst, a, b []float32){"dispatched": op.run, "portable": op.portable} {
					buf := make([]float32, 2+n+8)
					for i := range buf {
						buf[i] = sentinel
					}
					run(buf[2:2+n], a, b)
					sameBits(t, fmt.Sprintf("%s %s n=%d specials=%v", op.name, kind, n, every > 0), buf[2:2+n], want, 1)
					for i, v := range buf {
						if (i < 2 || i >= 2+n) && math.Float32bits(v) != 0xdeadbeef {
							t.Fatalf("%s %s n=%d: guard word %d overwritten", op.name, kind, n, i)
						}
					}
				}
			}
		}
	}
}

// TestElementwiseInPlace: dst may be either operand.
func TestElementwiseInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, op := range elemOps {
		a, b := randSlice(rng, 29), randSlice(rng, 29)
		want := make([]float32, len(a))
		for i := range want {
			want[i] = op.scalar(a[i], b[i])
		}
		onA, onB := append([]float32(nil), a...), append([]float32(nil), b...)
		op.run(onA, onA, b)
		op.run(onB, a, onB)
		sameBits(t, op.name+" dst=a", onA, want, 1)
		sameBits(t, op.name+" dst=b", onB, want, 1)
	}
}

// TestElementwiseLengthMismatch: unequal lengths panic rather than reading
// or writing past the shorter slice.
func TestElementwiseLengthMismatch(t *testing.T) {
	for _, op := range elemOps {
		for _, lens := range [][3]int{{8, 8, 7}, {8, 9, 8}, {7, 8, 8}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with lengths %v did not panic", op.name, lens)
					}
				}()
				op.run(make([]float32, lens[0]), make([]float32, lens[1]), make([]float32, lens[2]))
			}()
		}
	}
}
