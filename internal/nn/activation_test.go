package nn

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// orderedFloat is the k-th float32 in numeric order: k from 0x007FFFFF
// (−Inf) through 0x7FFFFFFF (−0) and 0x80000000 (+0) to 0xFF800000 (+Inf)
// walks every non-NaN value in ascending order; the patterns past either
// end are the NaNs.
func orderedFloat(k uint32) float32 {
	if k&0x80000000 != 0 {
		return math.Float32frombits(k &^ 0x80000000)
	}
	return math.Float32frombits(^k)
}

const (
	orderedNegInf = 0x007FFFFF
	orderedPosInf = 0xFF800000
	orderedZero   = 0x80000000 // +0; −0 is one below
)

// monotoneWalk checks an Activation over ascending patterns, one step per
// pattern: every value maps to NaN exactly when it is NaN, and no non-NaN
// value maps above a later one.
type monotoneWalk struct {
	a            Activation
	prevX, prevY float32
	seen         bool
}

func (w *monotoneWalk) step(k uint32) error {
	x := orderedFloat(k)
	y := w.a.of(x)
	if isNaN(x) != isNaN(y) {
		return fmt.Errorf("%s(%v) = %v (bits %#x → %#x)", w.a, x, y, math.Float32bits(x), math.Float32bits(y))
	}
	if isNaN(x) {
		return nil
	}
	if w.seen && w.prevY > y {
		return fmt.Errorf("%s decreases: f(%v) = %v > f(%v) = %v", w.a, w.prevX, w.prevY, x, y)
	}
	w.prevX, w.prevY, w.seen = x, y, true
	return nil
}

func isNaN(x float32) bool { return x != x }

// sampledOrder is the tier-1 sample of the float32 line, ascending: every
// 2^11-th pattern, and contiguous runs of 2^15 around ±0, around sigmoid's
// last 0 and first 1, at both infinities and into the NaNs past them.
func sampledOrder() []uint32 {
	var ks []uint32
	for k := uint64(0); k < 1<<32; k += 1 << 11 {
		ks = append(ks, uint32(k))
	}
	// saturation returns the first k in [lo, hi) whose sigmoid is at least
	// y, by bisection.
	saturation := func(y float32) uint32 {
		lo, hi := uint32(orderedNegInf), uint32(orderedPosInf)
		return lo + uint32(sort.Search(int(hi-lo), func(i int) bool { return ActSigmoid.of(orderedFloat(lo+uint32(i))) >= y }))
	}
	const run = 1 << 15
	for _, mid := range []uint32{orderedZero, saturation(math.SmallestNonzeroFloat32), saturation(1),
		orderedNegInf, orderedPosInf} {
		for k := uint64(mid) - run; k < uint64(mid)+run && k < 1<<32; k++ {
			ks = append(ks, uint32(k))
		}
	}
	slices.Sort(ks)
	return slices.Compact(ks)
}

// TestActivationsMonotone: every Activation — the map Network.Activate
// applies to a logit — is non-decreasing over float32 and maps only NaN to
// NaN, on a stratified sample of the 2^32 patterns. This is what lets a
// caller compare logits instead of scores: no logit scores above a larger
// one. (A monotoneWalk over all 2^32 patterns finds no violation either; that
// walk takes tens of seconds, so tier-1 runs the sample.)
func TestActivationsMonotone(t *testing.T) {
	ks := sampledOrder()
	for _, a := range []Activation{ActNone, ActReLU, ActSigmoid} {
		w := monotoneWalk{a: a}
		for _, k := range ks {
			if err := w.step(k); err != nil {
				t.Error(err)
				break
			}
		}
	}
	// The walk is only as good as its order: the sample must ascend through
	// the non-NaN line from −Inf to +Inf with −0 just below +0.
	for k, want := range map[uint32]float32{orderedNegInf: float32(math.Inf(-1)), orderedPosInf: float32(math.Inf(1)),
		orderedZero: 0, orderedZero - 1: float32(math.Copysign(0, -1))} {
		if got := orderedFloat(k); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("orderedFloat(%#x) = %v, want %v", k, got, want)
		}
	}
	if !isNaN(orderedFloat(orderedNegInf-1)) || !isNaN(orderedFloat(orderedPosInf+1)) {
		t.Error("the patterns past ±Inf are not NaN")
	}
}
