package exp

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/workload"
)

// Latency breakdown. A replayed trace's end-to-end latency decomposes into
// the observability stages — qcache_lookup, scan (miss) or rerank (hit), and
// the getResults DMA — and every query's stage durations sum exactly to its
// reported latency (the invariant the obs subsystem enforces). This
// experiment replays one cached trace and tabulates where the time went,
// alongside the engine's metrics snapshot and span trace for export.

// BreakdownConfig sizes the breakdown replay.
type BreakdownConfig struct {
	Features int   // materialized database size
	Queries  int   // trace length
	K        int   // top-K
	Seed     int64 // database and trace seed
	// QCEntries sizes the query cache (0 disables it, leaving only the
	// scan and dma stages).
	QCEntries int
	// QCThreshold is the cache's similarity threshold.
	QCThreshold float64
}

// DefaultBreakdown returns a laptop-scale configuration with the query cache
// on, so all four stages appear.
func DefaultBreakdown() BreakdownConfig {
	return BreakdownConfig{
		Features:    2000,
		Queries:     64,
		K:           10,
		Seed:        7,
		QCEntries:   256,
		QCThreshold: 0.2,
	}
}

// BreakdownResult couples the replay report with the engine that produced it,
// so callers can export the metrics snapshot and the Chrome trace.
type BreakdownResult struct {
	Report   core.TraceReport
	Snapshot obs.Snapshot
	// Engine is the replay's engine, alive for WriteChromeTrace.
	Engine *core.DeepStore
}

// LatencyBreakdown replays a Zipfian trace through a fresh engine and returns
// the per-stage decomposition. It fails if the stage totals do not sum to the
// end-to-end total — the invariant that makes the table trustworthy.
func LatencyBreakdown(cfg BreakdownConfig) (BreakdownResult, error) {
	if cfg.Features < 1 || cfg.Queries < 1 || cfg.K < 1 {
		return BreakdownResult{}, fmt.Errorf("exp: breakdown config %+v invalid", cfg)
	}
	app, err := workload.ByName("TextQA")
	if err != nil {
		return BreakdownResult{}, err
	}
	app.SCN.InitRandom(cfg.Seed)
	db := workload.NewFeatureDB(app, cfg.Features, cfg.Seed+1)

	ds, model, dbid, err := newEngine(core.DefaultOptions(), db.Vectors, app.SCN)
	if err != nil {
		return BreakdownResult{}, err
	}
	if cfg.QCEntries > 0 {
		// A deterministic dot-product QCN (all-equal positive weights over a
		// Hadamard front end): repeated intents score near 1 and unrelated
		// ones near 0.5, so the Zipfian trace produces real hits and the
		// rerank stage appears in the table.
		qcn, err := dotNet("breakdown-qcn", app.SCN.FeatureElems(), 0.5)
		if err != nil {
			return BreakdownResult{}, err
		}
		if err := ds.SetQC(qcn, 0.95, cfg.QCEntries, cfg.QCThreshold); err != nil {
			return BreakdownResult{}, err
		}
	}
	trace := workload.GenerateTrace(workload.TraceConfig{
		Universe: 64, Length: cfg.Queries, Dist: workload.Zipfian, Alpha: 0.7, Seed: cfg.Seed,
	})
	report, err := ds.ReplayTrace(trace, model, dbid, cfg.K)
	if err != nil {
		return BreakdownResult{}, err
	}
	var stageSum, total = obs.SumStageStats(report.Stages), report.TotalLatency
	if stageSum != total {
		return BreakdownResult{}, fmt.Errorf("exp: stage totals %v do not sum to end-to-end latency %v", stageSum, total)
	}
	return BreakdownResult{Report: report, Snapshot: ds.MetricsSnapshot(), Engine: ds}, nil
}

// breakdownTable returns the per-stage table, captioned with the replay's
// headline numbers, with a trailing total row equal to the end-to-end latency.
func breakdownTable(r BreakdownResult) report.Table {
	header := []string{"Stage", "Count", "Total (ms)", "Mean (ms)", "Share (%)"}
	total := r.Report.TotalLatency.Seconds() * 1e3
	var out [][]string
	for _, s := range r.Report.Stages {
		ms := s.Total.Seconds() * 1e3
		mean := 0.0
		if s.Count > 0 {
			mean = ms / float64(s.Count)
		}
		out = append(out, []string{
			s.Name, fmt.Sprint(s.Count), F(ms), F(mean), F(Ratio(ms, total) * 100),
		})
	}
	out = append(out, []string{
		"total", fmt.Sprint(r.Report.Queries), F(total), F(total / float64(r.Report.Queries)), "100",
	})
	return report.Table{Name: "breakdown", Header: header, Rows: out,
		Caption: fmt.Sprintf("queries=%d hits=%d miss-rate=%.2f mean=%.3fms p99=%.3fms",
			r.Report.Queries, r.Report.CacheHits, r.Report.MissRate,
			r.Report.MeanLatency.Seconds()*1e3, r.Report.P99Latency.Seconds()*1e3)}
}

// breakdownResult is the stage table plus the replay's two observability
// artifacts: the metrics snapshot and the span trace in Chrome trace-event
// format (load in chrome://tracing or Perfetto).
func breakdownResult(r BreakdownResult) (Result, error) {
	metrics, err := indentJSON(r.Snapshot)
	if err != nil {
		return Result{}, err
	}
	var trace bytes.Buffer
	if err := r.Engine.WriteChromeTrace(&trace); err != nil {
		return Result{}, err
	}
	return Result{
		Tables:    []report.Table{breakdownTable(r)},
		Artifacts: []Artifact{{Name: "metrics", Data: metrics}, {Name: "trace", Data: trace.Bytes()}},
	}, nil
}
