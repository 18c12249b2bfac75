package exp

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/qcache"
	"repro/internal/report"
	"repro/internal/ssd"
	"repro/internal/viz"
	"repro/internal/workload"
)

// QCStudyConfig parameterizes the §6.5 query-cache study: TIR on 100M images
// (192 GB of feature vectors) with 100K queries against a 1K-entry cache.
// Trace length is reduced by default — miss rates converge long before 100K
// queries — and can be raised to the paper's scale.
type QCStudyConfig struct {
	Features     int64 // database size (100M in §6.5)
	Universe     int64 // distinct semantic queries behind the noised stream
	TraceLen     int
	CacheEntries int
	QCNAccuracy  float64
	Seed         int64
}

// DefaultQCStudy returns the §6.5 setup with a convergence-scaled trace.
func DefaultQCStudy() QCStudyConfig {
	return QCStudyConfig{
		Features:     100_000_000,
		Universe:     2000,
		TraceLen:     20_000,
		CacheEntries: 1000,
		QCNAccuracy:  0.95,
		Seed:         42,
	}
}

// qcnScore is the analytic stand-in for running the Universal Sentence
// Encoder over two query occurrences: same-intent pairs score near 1 with a
// jitter penalty; different intents land well below any useful threshold.
func qcnScore(a, b workload.Query) float64 {
	if a.SemanticID == b.SemanticID {
		s := 1 - 0.3*(a.Jitter+b.Jitter)
		if s < 0 {
			return 0
		}
		return s
	}
	// Deterministic pseudo-random dissimilar score in [0, 0.4).
	h := uint64(a.SemanticID*0x9E3779B9+b.SemanticID) * 0xBF58476D1CE4E5B9 >> 40
	return float64(h%400) / 1000
}

// SimulateQCTrace replays a trace through the similarity cache and returns
// the steady-state miss rate. The cache is warmed with the first half of the
// trace; the miss rate is measured over the second half (§6.5 warms the
// cache before measuring).
func SimulateQCTrace(cfg QCStudyConfig, dist workload.Distribution, alpha, threshold float64) float64 {
	trace := workload.GenerateTrace(workload.TraceConfig{
		Universe:  cfg.Universe,
		Length:    cfg.TraceLen,
		Dist:      dist,
		Alpha:     alpha,
		MaxJitter: 0.2,
		Seed:      cfg.Seed,
	})
	cache := qcache.New[workload.Query](cfg.CacheEntries, cfg.QCNAccuracy, qcnScore)
	warm := len(trace.Queries) / 2
	for _, q := range trace.Queries[:warm] {
		if _, hit := cache.Lookup(q, threshold); !hit {
			cache.Insert(q, nil)
		}
	}
	measured := cache.Stats()
	for _, q := range trace.Queries[warm:] {
		if _, hit := cache.Lookup(q, threshold); !hit {
			cache.Insert(q, nil)
		}
	}
	final := cache.Stats()
	misses := final.Misses - measured.Misses
	lookups := final.Lookups - measured.Lookups
	if lookups == 0 {
		return 1
	}
	return float64(misses) / float64(lookups)
}

// Fig13Row is one Fig. 13 x-axis point: speedups over the plain traditional
// system and the cache miss rate, at one error threshold.
type Fig13Row struct {
	Dist         string
	ThresholdPct int
	MissRate     float64
	QCSpeedupRow
}

// QCSpeedupRow holds the three Fig. 13 speedups for one miss rate.
type QCSpeedupRow struct {
	TraditionalQC float64 // Traditional + QCache over Traditional
	DeepStore     float64 // DeepStore (no QC) over Traditional
	DeepStoreQC   float64 // DeepStore + QCache over Traditional
}

// qcDists are the §6.5 query streams: Fig. 13 sweeps the first two, Fig. 14
// all three.
var qcDists = []struct {
	d     workload.Distribution
	alpha float64
	name  string
}{
	{workload.Uniform, 0, "uniform"},
	{workload.Zipfian, 0.7, "zipf-0.7"},
	{workload.Zipfian, 0.8, "zipf-0.8"},
}

// qcCosts precomputes the §6.5 system latencies: one full-database scan on
// the traditional and DeepStore systems, plus the cache lookup cost on each
// (the QCN runs on the channel-level accelerators in DeepStore — §6.5
// reports ~0.3 ms for 1000 entries — and on the GPU in the baseline).
type qcCosts struct {
	baseSec, dsSec       float64
	hostLookup, dsLookup float64
}

func computeQCCosts(cfg QCStudyConfig) (qcCosts, error) {
	app, err := workload.ByName("TIR")
	if err != nil {
		return qcCosts{}, err
	}
	baseCfg := baseline.DefaultConfig()
	baseSec, _ := baseCfg.ScanTime(app, cfg.Features, app.DefaultBatch)
	devCfg := ssd.DefaultConfig()
	spec := accel.SpecForLevel(accel.LevelChannel, devCfg)
	out, err := RunScan(app, spec, devCfg, cfg.Features)
	if err != nil {
		return qcCosts{}, err
	}
	qcn := app.QCN()
	perQCN := float64(spec.Array.NetworkCost(qcn.LayerPlan()).Cycles) / spec.Array.FreqHz
	return qcCosts{
		baseSec:    baseSec,
		dsSec:      out.Seconds,
		dsLookup:   perQCN * float64((cfg.CacheEntries+spec.Count-1)/spec.Count),
		hostLookup: baseCfg.GPU.BatchComputeTime(qcn.LayerPlan(), cfg.CacheEntries),
	}, nil
}

func (c qcCosts) speedups(miss float64) QCSpeedupRow {
	return QCSpeedupRow{
		TraditionalQC: c.baseSec / (miss*(c.baseSec+c.hostLookup) + (1-miss)*c.hostLookup),
		DeepStore:     c.baseSec / c.dsSec,
		DeepStoreQC:   c.baseSec / (miss*(c.dsSec+c.dsLookup) + (1-miss)*c.dsLookup),
	}
}

// QCSpeedups composes a measured miss rate with the §6.5 system latencies.
func QCSpeedups(cfg QCStudyConfig, missRate float64) (QCSpeedupRow, error) {
	costs, err := computeQCCosts(cfg)
	if err != nil {
		return QCSpeedupRow{}, err
	}
	return costs.speedups(missRate), nil
}

// Figure13 sweeps the error threshold 0–20% for uniform and Zipfian(0.7)
// query streams (§6.5, Fig. 13), composing the measured miss rates with the
// scan and lookup latencies of each system.
func Figure13(cfg QCStudyConfig) ([]Fig13Row, error) {
	costs, err := computeQCCosts(cfg)
	if err != nil {
		return nil, err
	}

	var rows []Fig13Row
	for _, d := range qcDists[:2] {
		for _, pct := range []int{0, 2, 5, 8, 10, 12, 15, 18, 20} {
			miss := SimulateQCTrace(cfg, d.d, d.alpha, float64(pct)/100)
			rows = append(rows, Fig13Row{Dist: d.name, ThresholdPct: pct, MissRate: miss, QCSpeedupRow: costs.speedups(miss)})
		}
	}
	return rows, nil
}

// Figure13Table tabulates the sweep.
func Figure13Table(rows []Fig13Row) report.Table {
	header := []string{"Dist", "Threshold %", "Miss %", "Trad+QC x", "DeepStore x", "DeepStore+QC x"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dist, fmt.Sprint(r.ThresholdPct), F(r.MissRate * 100),
			F(r.TraditionalQC), F(r.DeepStore), F(r.DeepStoreQC),
		})
	}
	return report.Table{Name: "fig13", Header: header, Rows: out}
}

// addPoint appends p to the series called name, adding the series on first
// sight so chart lines keep the rows' order.
func addPoint(series []viz.Series, name string, p viz.Point) []viz.Series {
	for i := range series {
		if series[i].Name == name {
			series[i].Points = append(series[i].Points, p)
			return series
		}
	}
	return append(series, viz.Series{Name: name, Points: []viz.Point{p}})
}

func figure13Chart(rows []Fig13Row) string {
	var series []viz.Series
	for _, r := range rows {
		series = addPoint(series, "DeepStore+QC "+r.Dist, viz.Point{X: float64(r.ThresholdPct), Y: r.DeepStoreQC})
	}
	return viz.LineChart("Fig 13: DeepStore+QC speedup vs error threshold (%)", series, 64, 14)
}

// Fig14Row is one cache-size point of Fig. 14.
type Fig14Row struct {
	Dist     string
	Entries  int
	MissRate float64
}

// Figure14 sweeps the cache size 100–1000 entries at a 10% threshold for
// uniform, Zipfian(0.7), and Zipfian(0.8) streams (§6.5, Fig. 14).
func Figure14(cfg QCStudyConfig) []Fig14Row {
	var rows []Fig14Row
	for _, d := range qcDists {
		for entries := 100; entries <= 1000; entries += 100 {
			c := cfg
			c.CacheEntries = entries
			rows = append(rows, Fig14Row{
				Dist:     d.name,
				Entries:  entries,
				MissRate: SimulateQCTrace(c, d.d, d.alpha, 0.10),
			})
		}
	}
	return rows
}

// figure14Table tabulates the sweep.
func figure14Table(rows []Fig14Row) report.Table {
	header := []string{"Dist", "Entries", "Miss %"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Dist, fmt.Sprint(r.Entries), F(r.MissRate * 100)})
	}
	return report.Table{Name: "fig14", Header: header, Rows: out}
}

func figure14Chart(rows []Fig14Row) string {
	var series []viz.Series
	for _, r := range rows {
		series = addPoint(series, r.Dist, viz.Point{X: float64(r.Entries), Y: r.MissRate * 100})
	}
	return viz.LineChart("Fig 14: miss rate (%) vs cache entries", series, 64, 14)
}
