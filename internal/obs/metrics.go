package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Safe for concurrent
// use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric. Safe for concurrent use; a nil
// Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is ≥ the value, or in the implicit overflow
// bucket past the last bound. Alongside the buckets it tracks exact count,
// sum, min, and max, so means are exact and only the quantiles are
// bucket-resolution. Safe for concurrent use; a nil Histogram is a no-op.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []int64   // len(bounds)+1; last is overflow
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

func (h *Histogram) quantileLocked(p float64) float64 {
	if h.count == 0 {
		return math.NaN()
	}
	rank := int64(quantileIndex(int(h.count), p)) + 1 // 1-based
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := h.max
			if i < len(h.bounds) && h.bounds[i] < v {
				v = h.bounds[i]
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// LatencyBucketsMs returns the default 1-2-5 decade bucket bounds for
// latency histograms, in milliseconds: 1 µs up to 100 s. Sub-microsecond
// observations land in the first bucket; anything above 100 s overflows.
func LatencyBucketsMs() []float64 {
	var b []float64
	for _, decade := range []float64{1e-3, 1e-2, 1e-1, 1, 10, 100, 1e3, 1e4} {
		for _, m := range []float64{1, 2, 5} {
			b = append(b, decade*m)
		}
	}
	return append(b, 1e5)
}

// Registry names and owns a process's metrics. Metric handles are created on
// first use and stable thereafter, so hot paths can cache them. Safe for
// concurrent use; a nil Registry hands out nil (no-op) metrics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Bucket is one histogram bucket in a snapshot: the count of observations at
// or below the upper bound (non-cumulative).
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is a histogram's exported state.
type HistogramSnapshot struct {
	Count    int64    `json:"count"`
	Sum      float64  `json:"sum"`
	Min      float64  `json:"min"`
	Max      float64  `json:"max"`
	Mean     float64  `json:"mean"`
	P50      float64  `json:"p50"`
	P90      float64  `json:"p90"`
	P99      float64  `json:"p99"`
	Buckets  []Bucket `json:"buckets,omitempty"`
	Overflow int64    `json:"overflow,omitempty"`
}

// Snapshot is a point-in-time export of a registry, shaped for JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot exports every metric. A nil registry exports empty (non-nil)
// maps so callers can fold subsystem stats in unconditionally.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.snapshot()
	}
	return snap
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := HistogramSnapshot{
		Count:    h.count,
		Sum:      h.sum,
		Min:      h.min,
		Max:      h.max,
		Overflow: h.counts[len(h.counts)-1],
	}
	if h.count > 0 {
		hs.Mean = h.sum / float64(h.count)
		hs.P50 = h.quantileLocked(50)
		hs.P90 = h.quantileLocked(90)
		hs.P99 = h.quantileLocked(99)
	}
	for i, b := range h.bounds {
		if h.counts[i] > 0 {
			hs.Buckets = append(hs.Buckets, Bucket{UpperBound: b, Count: h.counts[i]})
		}
	}
	return hs
}
