package obs

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestQuantileNearestRank pins the documented nearest-rank definition:
// the value at 1-based rank ⌈p·n/100⌉. The p50-of-4 case is the bug the
// three ad-hoc copies disagreed on (idx = n·p/100 returns the 3rd order
// statistic instead of the 2nd).
func TestQuantileNearestRank(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"n=1 p=0", []float64{7}, 0, 7},
		{"n=1 p=50", []float64{7}, 50, 7},
		{"n=1 p=100", []float64{7}, 100, 7},
		{"n=4 p=0 is min", []float64{1, 2, 3, 4}, 0, 1},
		{"n=4 p=50 is 2nd order stat", []float64{1, 2, 3, 4}, 50, 2},
		{"n=4 p=99", []float64{1, 2, 3, 4}, 99, 4},
		{"n=4 p=100 is max", []float64{1, 2, 3, 4}, 100, 4},
		{"n=4 p=25 exact-rank boundary", []float64{1, 2, 3, 4}, 25, 1},
		{"n=4 p=26 crosses the boundary", []float64{1, 2, 3, 4}, 26, 2},
		{"n=4 p=75 exact-rank boundary", []float64{1, 2, 3, 4}, 75, 3},
		{"n=5 p=50 is the median", []float64{1, 2, 3, 4, 5}, 50, 3},
		{"n=10 p=90 exact rank", []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 90, 8},
		{"n=10 p=91", []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 91, 9},
		{"n=99 p=50", seq(99), 50, 49}, // rank ⌈49.5⌉ = 50 → value 49
		{"n=100 p=99 exact rank", seq(100), 99, 98},
		{"n=100 p=50 exact rank", seq(100), 50, 49},
		{"n=100 p=100", seq(100), 100, 99},
		{"clamped below", []float64{1, 2}, -5, 1},
		{"clamped above", []float64{1, 2}, 120, 2},
	}
	for _, c := range cases {
		if got := Quantile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: Quantile(p=%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 50)) {
		t.Error("empty sample did not return NaN")
	}
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i)
	}
	return s
}

func TestQuantileDurations(t *testing.T) {
	d := []sim.Duration{sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond, 4 * sim.Millisecond}
	if got := QuantileDurations(d, 50); got != 2*sim.Millisecond {
		t.Errorf("p50 = %v, want 2ms", got)
	}
	if got := QuantileDurations(d, 99); got != 4*sim.Millisecond {
		t.Errorf("p99 = %v, want 4ms", got)
	}
	if got := QuantileDurations(nil, 50); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("queries") != c {
		t.Error("counter handle not stable")
	}
	g := r.Gauge("mode")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %v", g.Value())
	}

	// nil registry and nil metrics are no-ops.
	var nilReg *Registry
	nilReg.Counter("x").Inc()
	nilReg.Gauge("y").Set(1)
	nilReg.Histogram("z", nil).Observe(1)
	snap := nilReg.Snapshot()
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		t.Error("nil registry snapshot has nil maps")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10})
	for _, v := range []float64{0.5, 1.5, 1.7, 4} {
		h.Observe(v)
	}
	// Ranks: p50 → rank 2 → the 2nd observation in bucket order: bucket
	// le=2 (holds 1.5 and 1.7). Bucket resolution reports the upper bound.
	if got := h.quantileLocked(50); got != 2 {
		t.Errorf("p50 = %v, want bucket bound 2", got)
	}
	if got := h.quantileLocked(100); got != 4 {
		t.Errorf("p100 = %v, want max 4 (clamped below bound 5)", got)
	}
	if got := h.quantileLocked(0); got != 1 {
		t.Errorf("p0 = %v, want first bucket bound 1", got)
	}
	h.Observe(99) // overflow
	if got := h.quantileLocked(100); got != 99 {
		t.Errorf("overflow p100 = %v, want observed max", got)
	}
	if h.count != 5 {
		t.Errorf("count = %d", h.count)
	}
	if !math.IsNaN(NewHistogram(nil).quantileLocked(50)) {
		t.Error("empty histogram quantile not NaN")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(1.5)
	h := r.Histogram("lat_ms", LatencyBucketsMs())
	h.Observe(0.5)
	h.Observe(3)
	snap := r.Snapshot()
	if snap.Counters["a"] != 3 || snap.Gauges["b"] != 1.5 {
		t.Errorf("snapshot scalars: %+v", snap)
	}
	hs, ok := snap.Histograms["lat_ms"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 2 || hs.Sum != 3.5 || hs.Min != 0.5 || hs.Max != 3 {
		t.Errorf("histogram snapshot: %+v", hs)
	}
	if hs.Mean != 1.75 {
		t.Errorf("mean = %v", hs.Mean)
	}
	if len(hs.Buckets) != 2 {
		t.Errorf("expected 2 occupied buckets, got %+v", hs.Buckets)
	}
}
