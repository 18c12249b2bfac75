package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Typed validation errors for degenerate trace configurations, so callers
// building configs from external input can classify what was wrong with
// errors.Is instead of parsing panic strings.
var (
	// ErrTraceUniverse marks Universe <= 0.
	ErrTraceUniverse = errors.New("workload: trace universe must be positive")
	// ErrTraceLength marks Length < 0.
	ErrTraceLength = errors.New("workload: trace length must be non-negative")
	// ErrTraceAlpha marks a negative Zipfian skew.
	ErrTraceAlpha = errors.New("workload: zipf alpha must be non-negative")
	// ErrTraceJitter marks MaxJitter outside [0, 1].
	ErrTraceJitter = errors.New("workload: max jitter must lie in [0, 1]")
)

// Distribution selects how a query trace samples the query universe (§6.5).
type Distribution int

const (
	// Uniform draws every distinct query with equal probability.
	Uniform Distribution = iota
	// Zipfian draws query i with probability proportional to 1/i^alpha,
	// producing the temporal locality the query cache exploits.
	Zipfian
)

// String names the distribution, including alpha for Zipfian traces.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Query is one entry of a query trace. Queries with the same SemanticID are
// semantically similar (re-phrasings of the same intent); Jitter in [0,1]
// measures how far this occurrence drifts from the semantic centroid. A QCN
// comparing two occurrences of the same SemanticID sees a similarity that
// decreases with their jitter.
type Query struct {
	ID         int64 // position in the trace
	SemanticID int64 // which distinct query intent this is
	Jitter     float64
}

// TraceConfig configures query-trace generation.
type TraceConfig struct {
	// Universe is the number of distinct query intents (100K in §6.5).
	Universe int64
	// Length is the number of trace entries.
	Length int
	// Dist selects the sampling distribution.
	Dist Distribution
	// Alpha is the Zipfian skew (0.7 and 0.8 in §6.5); ignored for Uniform.
	Alpha float64
	// MaxJitter bounds per-occurrence drift from the semantic centroid.
	// §6.5 adds noise "without affecting the ground truth"; 0.05 default.
	MaxJitter float64
	// Seed makes the trace deterministic.
	Seed int64
}

// Trace is a generated query stream.
type Trace struct {
	Config  TraceConfig
	Queries []Query
}

// zipfSampler samples ranks 1..n with P(i) ∝ 1/i^alpha for any alpha > 0.
// The standard library's rand.Zipf requires alpha > 1, but the paper uses
// α = 0.7 and 0.8, so we build an explicit inverse-CDF sampler.
type zipfSampler struct {
	cdf []float64
	rng *rand.Rand
}

func newZipfSampler(rng *rand.Rand, n int64, alpha float64) *zipfSampler {
	if n <= 0 {
		panic(fmt.Sprintf("workload: zipf universe %d <= 0", n))
	}
	if alpha < 0 {
		panic(fmt.Sprintf("workload: zipf alpha %v < 0", alpha))
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := int64(0); i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{cdf: cdf, rng: rng}
}

// sample returns a rank in [0, n).
func (z *zipfSampler) sample() int64 {
	u := z.rng.Float64()
	r := int64(sort.SearchFloat64s(z.cdf, u))
	// Floating-point normalization can leave cdf[n-1] fractionally below 1;
	// a draw above it would return n and index out of range downstream.
	if r >= int64(len(z.cdf)) {
		r = int64(len(z.cdf)) - 1
	}
	return r
}

// Validate reports whether the configuration can generate a trace; each
// defect wraps its typed sentinel (ErrTraceUniverse, ErrTraceLength,
// ErrTraceAlpha, ErrTraceJitter).
func (cfg TraceConfig) Validate() error {
	if cfg.Universe <= 0 {
		return fmt.Errorf("%w: got %d", ErrTraceUniverse, cfg.Universe)
	}
	if cfg.Length < 0 {
		return fmt.Errorf("%w: got %d", ErrTraceLength, cfg.Length)
	}
	if cfg.Dist == Zipfian && cfg.Alpha < 0 {
		return fmt.Errorf("%w: got %v", ErrTraceAlpha, cfg.Alpha)
	}
	if cfg.MaxJitter < 0 || cfg.MaxJitter > 1 {
		return fmt.Errorf("%w: got %v", ErrTraceJitter, cfg.MaxJitter)
	}
	return nil
}

// GenerateTrace builds a deterministic query trace, panicking on a
// degenerate configuration — the convenience entry point for literal,
// known-good configs (benchmarks, tests). Code handling external input
// should call Validate first and classify its typed error.
func GenerateTrace(cfg TraceConfig) *Trace {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Config: cfg, Queries: make([]Query, cfg.Length)}
	var zipf *zipfSampler
	if cfg.Dist == Zipfian {
		zipf = newZipfSampler(rng, cfg.Universe, cfg.Alpha)
	}
	// Shuffle the identity of the hot semantic IDs so rank order does not
	// correlate with ID value.
	perm := rng.Perm(int(cfg.Universe))
	for i := range tr.Queries {
		var rank int64
		switch cfg.Dist {
		case Uniform:
			rank = rng.Int63n(cfg.Universe)
		case Zipfian:
			rank = zipf.sample()
		}
		tr.Queries[i] = Query{
			ID:         int64(i),
			SemanticID: int64(perm[rank]),
			Jitter:     rng.Float64() * cfg.MaxJitter,
		}
	}
	return tr
}

// DistinctQueries returns the number of distinct semantic IDs in the trace.
func (t *Trace) DistinctQueries() int {
	seen := make(map[int64]struct{}, len(t.Queries))
	for _, q := range t.Queries {
		seen[q.SemanticID] = struct{}{}
	}
	return len(seen)
}

// PopularityStats summarizes a trace's locality: what fraction of queries
// the hottest intents absorb. These are the quantities that predict query
// cache effectiveness (§6.5).
type PopularityStats struct {
	Queries  int
	Distinct int
	// Top1, Top10Pct are the fractions of the trace covered by the single
	// hottest intent and by the hottest 10% of distinct intents.
	Top1     float64
	Top10Pct float64
	// CacheCoverage maps a cache size (in entries) to the trace fraction
	// those hottest intents cover — an upper bound on hit rate.
	CacheCoverage func(entries int) float64
}

// Popularity computes trace locality statistics.
func (t *Trace) Popularity() PopularityStats {
	counts := map[int64]int{}
	for _, q := range t.Queries {
		counts[q.SemanticID]++
	}
	sorted := make([]int, 0, len(counts))
	for _, c := range counts {
		sorted = append(sorted, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total := len(t.Queries)
	prefix := make([]int, len(sorted)+1)
	for i, c := range sorted {
		prefix[i+1] = prefix[i] + c
	}
	coverage := func(entries int) float64 {
		if total == 0 || entries <= 0 {
			return 0
		}
		if entries > len(sorted) {
			entries = len(sorted)
		}
		return float64(prefix[entries]) / float64(total)
	}
	stats := PopularityStats{
		Queries:       total,
		Distinct:      len(sorted),
		CacheCoverage: coverage,
	}
	if total > 0 && len(sorted) > 0 {
		stats.Top1 = float64(sorted[0]) / float64(total)
		top10 := len(sorted) / 10
		if top10 < 1 {
			top10 = 1
		}
		stats.Top10Pct = coverage(top10)
	}
	return stats
}

// QueryVector materializes the feature vector of a query occurrence: the
// deterministic centroid of its SemanticID plus jitter-scaled noise. Two
// occurrences of the same semantic ID are close (cosine ≈ 1 − O(jitter));
// different IDs are near-orthogonal in high dimension.
func QueryVector(q Query, dims int, seed int64) []float32 {
	base := rand.New(rand.NewSource(seed ^ (q.SemanticID * 0x5E3779B97F4A7C15)))
	v := make([]float32, dims)
	for i := range v {
		v[i] = base.Float32()*2 - 1
	}
	if q.Jitter > 0 {
		noise := rand.New(rand.NewSource(seed ^ (q.ID * 0x3F58476D1CE4E5B9)))
		for i := range v {
			v[i] += float32(q.Jitter) * (noise.Float32()*2 - 1)
		}
	}
	return v
}
