package nn

import (
	"fmt"
	"math"
)

// Stripe score bounds. The exact-pruning tier (DESIGN.md "Exact scan
// pruning") summarizes every channel stripe of a feature database with an
// Envelope — per-dimension float32 extrema plus the maximum feature norm —
// and asks, at query time, for a score no database vector inside the
// envelope can exceed. BoundScorer answers with interval arithmetic: it
// propagates [lo, hi] intervals through the same combine + layer stack the
// real Scorer executes, widening every stage by a rigorous float32
// rounding-error term, and rounds the final upper endpoint UP to float32.
// The guarantee the pruning tier rests on:
//
//	for every dfv absorbed into env:  Scorer.Score(qfv, dfv) <= UpperBound(qfv, env)
//
// including batched execution (BatchScorer runs the same arithmetic per
// row), all-negative scores, and adversarial rounding — bound_test.go
// property- and fuzz-tests exactly this inequality.

// ulp32 is the relative rounding bound of one float32 operation: results
// carry a relative error of at most 2^-24 (half an ulp) per rounded op.
const ulp32 = 1.0 / (1 << 24)

// Envelope is the per-stripe summary: the coordinate-wise bounding box of
// the stripe's feature vectors (the "projection sketch" onto the standard
// basis), the maximum vector norm (rounded up, for Cauchy–Schwarz-style
// diagnostics and table validation), and the member count.
type Envelope struct {
	Lo, Hi  []float32
	MaxNorm float32
	Count   int64
}

// NewEnvelope returns an empty envelope of the given dimensionality. An
// empty envelope (+Inf lo, -Inf hi) absorbs its first vector exactly.
func NewEnvelope(dims int) Envelope {
	lo := make([]float32, dims)
	hi := make([]float32, dims)
	for i := range lo {
		lo[i] = float32(math.Inf(1))
		hi[i] = float32(math.Inf(-1))
	}
	return Envelope{Lo: lo, Hi: hi}
}

// Absorb widens the envelope to include v. The extrema are exact (float32
// min/max loses nothing); the norm is accumulated in float64 and rounded up
// so MaxNorm can never fall below any member's true norm.
func (e *Envelope) Absorb(v []float32) {
	if len(v) != len(e.Lo) {
		panic(fmt.Sprintf("nn: envelope of %d dims absorbing %d-dim vector", len(e.Lo), len(v)))
	}
	var sq float64
	for i, x := range v {
		if x < e.Lo[i] {
			e.Lo[i] = x
		}
		if x > e.Hi[i] {
			e.Hi[i] = x
		}
		sq += float64(x) * float64(x)
	}
	// Nextafter absorbs the (sub-ulp) float64 error of the squared sum and
	// the square root before the upward float32 rounding.
	norm := roundUp32(math.Nextafter(math.Sqrt(sq), math.Inf(1)))
	if e.Count == 0 || norm > e.MaxNorm {
		e.MaxNorm = norm
	}
	e.Count++
}

// roundUp32 converts a float64 to the smallest float32 that is >= x.
func roundUp32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// BoundScorer propagates score intervals through one network. Like Scorer
// it is per-worker scratch state: not safe for concurrent use, while the
// Network it references stays immutable and shared.
type BoundScorer struct {
	net *Network
	// lo/hi hold the current layer input interval; nlo/nhi receive the next
	// layer's output. All four are sized to the widest activation.
	lo, hi, nlo, nhi []float64
}

// BoundScorer returns a fresh interval-propagation context for the network.
func (n *Network) BoundScorer() *BoundScorer {
	width := n.plan.widest
	return &BoundScorer{
		net: n,
		lo:  make([]float64, width),
		hi:  make([]float64, width),
		nlo: make([]float64, width),
		nhi: make([]float64, width),
	}
}

// UpperBound returns a float32 score that no vector inside env can beat
// against qfv, under the network's real float32 arithmetic (Scorer and
// BatchScorer alike). An empty envelope bounds nothing and returns -Inf; a
// layer type the propagation does not understand returns +Inf (sound: the
// caller never prunes).
func (s *BoundScorer) UpperBound(qfv []float32, env *Envelope) float32 {
	n := s.net
	fe := n.FeatureElems()
	if len(qfv) != fe || len(env.Lo) != fe || len(env.Hi) != fe {
		panic(fmt.Sprintf("nn: network %q wants %d-element features, got qfv %d, envelope %d",
			n.Name, fe, len(qfv), len(env.Lo)))
	}
	if env.Count == 0 {
		return float32(math.Inf(-1))
	}
	s.combineInterval(qfv, env)
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *FC:
			s.boundFC(t)
		case *Conv:
			s.boundConv(t)
		case *Elementwise:
			s.boundEW(t)
		default:
			return float32(math.Inf(1))
		}
	}
	return roundUp32(s.hi[0])
}

// combineInterval seeds [lo, hi] with the combine stage's output interval.
// The float64 endpoint arithmetic on float32 operands is exact; the real
// computation rounds each element once to float32, covered by one ulp of
// the largest magnitude.
func (s *BoundScorer) combineInterval(qfv []float32, env *Envelope) int {
	n := s.net
	fe := n.FeatureElems()
	switch n.Combine {
	case CombineHadamard:
		for i := 0; i < fe; i++ {
			q := float64(qfv[i])
			a, b := q*float64(env.Lo[i]), q*float64(env.Hi[i])
			if a > b {
				a, b = b, a
			}
			w := ulp32 * math.Max(math.Abs(a), math.Abs(b))
			s.lo[i], s.hi[i] = a-w, b+w
		}
		return fe
	case CombineSubtract:
		for i := 0; i < fe; i++ {
			q := float64(qfv[i])
			a, b := q-float64(env.Hi[i]), q-float64(env.Lo[i])
			w := ulp32 * math.Max(math.Abs(a), math.Abs(b))
			s.lo[i], s.hi[i] = a-w, b+w
		}
		return fe
	default: // CombineConcat: pure data movement, exact.
		for i := 0; i < fe; i++ {
			q := float64(qfv[i])
			s.lo[i], s.hi[i] = q, q
			s.lo[fe+i], s.hi[fe+i] = float64(env.Lo[i]), float64(env.Hi[i])
		}
		return 2 * fe
	}
}

// swap publishes nlo/nhi as the next layer's input.
func (s *BoundScorer) swap() {
	s.lo, s.nlo = s.nlo, s.lo
	s.hi, s.nhi = s.nhi, s.hi
}

// dotErrScale bounds the float32 rounding error of an n-term sequential
// dot-product-plus-bias accumulation (Gemv, the conv inner loops, and the
// bit-identical Gemm/im2col rows) relative to the sum of term magnitudes:
// the classic gamma_n = n*u/(1-n*u) bound is below (n+2)*u for any
// practical n, and the 4x margin generously absorbs the float64 rounding of
// the interval endpoints themselves.
func dotErrScale(n int) float64 {
	return 4 * float64(n+2) * ulp32
}

func (s *BoundScorer) boundFC(l *FC) int {
	errScale := dotErrScale(l.In)
	for o := 0; o < l.Out; o++ {
		row := l.W[o*l.In : (o+1)*l.In]
		var lo, hi, mag float64
		for i, w := range row {
			wf := float64(w)
			a, b := wf*s.lo[i], wf*s.hi[i]
			if a <= b {
				lo += a
				hi += b
			} else {
				lo += b
				hi += a
			}
			m := math.Abs(s.lo[i])
			if x := math.Abs(s.hi[i]); x > m {
				m = x
			}
			mag += math.Abs(wf) * m
		}
		bf := float64(l.B[o])
		lo += bf
		hi += bf
		mag += math.Abs(bf)
		e := errScale * mag
		s.nlo[o], s.nhi[o] = lo-e, hi+e
	}
	applyActBounds(l.Act, s.nlo[:l.Out], s.nhi[:l.Out])
	s.swap()
	return l.Out
}

// boundConv mirrors tensor.Conv2D's loop structure: out-of-bounds taps
// contribute exactly zero (the im2col batched path pads with explicit
// zeros, which is also exact), so only in-bounds taps enter the interval
// and the magnitude sums. The error term conservatively counts the full
// R*S*C accumulation length.
func (s *BoundScorer) boundConv(l *Conv) int {
	oh := (l.H+2*l.Pad-l.R)/l.Stride + 1
	ow := (l.W+2*l.Pad-l.S)/l.Stride + 1
	errScale := dotErrScale(l.R * l.S * l.C)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for f := 0; f < l.K; f++ {
				var lo, hi, mag float64
				for ry := 0; ry < l.R; ry++ {
					iy := oy*l.Stride + ry - l.Pad
					if iy < 0 || iy >= l.H {
						continue
					}
					for rx := 0; rx < l.S; rx++ {
						ix := ox*l.Stride + rx - l.Pad
						if ix < 0 || ix >= l.W {
							continue
						}
						inBase := (iy*l.W + ix) * l.C
						wBase := ((f*l.R+ry)*l.S + rx) * l.C
						for ch := 0; ch < l.C; ch++ {
							wf := float64(l.Wt[wBase+ch])
							a, b := wf*s.lo[inBase+ch], wf*s.hi[inBase+ch]
							if a <= b {
								lo += a
								hi += b
							} else {
								lo += b
								hi += a
							}
							m := math.Abs(s.lo[inBase+ch])
							if x := math.Abs(s.hi[inBase+ch]); x > m {
								m = x
							}
							mag += math.Abs(wf) * m
						}
					}
				}
				bf := float64(l.B[f])
				lo += bf
				hi += bf
				mag += math.Abs(bf)
				e := errScale * mag
				o := (oy*ow+ox)*l.K + f
				s.nlo[o], s.nhi[o] = lo-e, hi+e
			}
		}
	}
	out := oh * ow * l.K
	applyActBounds(l.Act, s.nlo[:out], s.nhi[:out])
	s.swap()
	return out
}

func (s *BoundScorer) boundEW(l *Elementwise) int {
	for i := 0; i < l.N; i++ {
		op := float64(l.Operand[i])
		var a, b float64
		switch l.Op {
		case EWAdd:
			a, b = s.lo[i]+op, s.hi[i]+op
		case EWSub:
			a, b = s.lo[i]-op, s.hi[i]-op
		default: // EWMul, EWScale
			a, b = s.lo[i]*op, s.hi[i]*op
			if a > b {
				a, b = b, a
			}
		}
		// Endpoint arithmetic on float32-representable operands is exact in
		// float64; one float32 rounding in the real computation remains.
		w := ulp32 * math.Max(math.Abs(a), math.Abs(b))
		s.nlo[i], s.nhi[i] = a-w, b+w
	}
	s.swap()
	return l.N
}

// applyActBounds maps an interval through the activation. ReLU is exact
// (monotone, computed without rounding); Sigmoid is monotone with its
// float64 exp/div and final float32 rounding covered by a small absolute
// widening (outputs live in [0, 1], where 4 ulps of 1.0 dominate every
// rounding step involved).
func applyActBounds(a Activation, lo, hi []float64) {
	switch a {
	case ActReLU:
		for i := range lo {
			if lo[i] < 0 {
				lo[i] = 0
			}
			if hi[i] < 0 {
				hi[i] = 0
			}
		}
	case ActSigmoid:
		for i := range lo {
			lo[i] = sigmoid64(lo[i]) - 4*ulp32
			hi[i] = sigmoid64(hi[i]) + 4*ulp32
		}
	}
}

func sigmoid64(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
