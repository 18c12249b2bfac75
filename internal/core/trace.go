package core

import (
	"fmt"
	"sort"

	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TraceReport summarizes a replayed query stream.
type TraceReport struct {
	Queries   int
	CacheHits int
	// MissRate is 1 − hits/queries (1.0 with no cache configured).
	MissRate float64
	// TotalLatency, MeanLatency, and P99Latency aggregate the simulated
	// per-query in-storage latencies.
	TotalLatency sim.Duration
	MeanLatency  sim.Duration
	P99Latency   sim.Duration
	// EnergyJ is the summed modeled energy.
	EnergyJ float64
	// Service holds the per-query service times in trace order.
	Service []sim.Duration
	// Stages is the per-stage latency breakdown across the replay, in
	// pipeline order; every query's stage durations sum exactly to its
	// service time, so the stage totals sum to TotalLatency.
	Stages []obs.StageStat
}

// ReplayTrace drives a recorded query trace through the engine against the
// given model and database: each trace entry's feature vector is
// materialized deterministically (same intent ⇒ nearby vectors), submitted
// through the normal query path — including the query cache, when configured
// via SetQC — and its results retrieved. This is the §5 methodology: traces
// collected from applications are fed to the simulated query engine.
func (ds *DeepStore) ReplayTrace(tr *workload.Trace, model ModelID, db ftl.DBID, k int) (TraceReport, error) {
	return ds.replayTrace(tr, model, db, k, 1, func(specs []QuerySpec) ([]*QueryResult, error) {
		id, err := ds.Query(specs[0])
		if err != nil {
			return nil, err
		}
		res, err := ds.GetResults(id)
		return []*QueryResult{res}, err
	})
}

// ReplayTraceMulti replays the trace in groups of batch consecutive queries
// submitted through Do, so each group shares one in-storage sweep.
// Because the shared sweep preserves per-query cache semantics, latency, and
// energy exactly, the report matches ReplayTrace on an identically
// constructed engine — the shared_scan stage replacing scan in the breakdown
// — while the engine's device timeline advances once per group instead of
// once per query.
func (ds *DeepStore) ReplayTraceMulti(tr *workload.Trace, model ModelID, db ftl.DBID, k, batch int) (TraceReport, error) {
	if batch < 1 {
		return TraceReport{}, fmt.Errorf("core: batch %d invalid", batch)
	}
	return ds.replayTrace(tr, model, db, k, batch, ds.Do)
}

// replayTrace is the replay loop: consecutive groups of batch trace queries
// go through submit, and every delivered result is folded into the report.
func (ds *DeepStore) replayTrace(tr *workload.Trace, model ModelID, db ftl.DBID, k, batch int,
	submit func([]QuerySpec) ([]*QueryResult, error)) (TraceReport, error) {
	if tr == nil || len(tr.Queries) == 0 {
		return TraceReport{}, fmt.Errorf("core: empty trace")
	}
	ds.mu.Lock()
	st, err := ds.db(db)
	if err != nil {
		ds.mu.Unlock()
		return TraceReport{}, err
	}
	dims := int(st.meta.Layout.FeatureBytes / 4)
	ds.mu.Unlock()
	var report TraceReport
	report.Service = make([]sim.Duration, 0, len(tr.Queries))
	for off := 0; off < len(tr.Queries); off += batch {
		group := tr.Queries[off:min(off+batch, len(tr.Queries))]
		specs := make([]QuerySpec, len(group))
		for i, q := range group {
			specs[i] = QuerySpec{
				QFV: workload.QueryVector(q, dims, tr.Config.Seed),
				K:   k, Model: model, DB: db,
			}
		}
		results, err := submit(specs)
		if err != nil {
			return TraceReport{}, fmt.Errorf("core: trace query %d: %w", group[0].ID, err)
		}
		for i, res := range results {
			if res.Err != nil {
				return TraceReport{}, fmt.Errorf("core: trace query %d: %w", group[i].ID, res.Err)
			}
			report.Queries++
			if res.CacheHit {
				report.CacheHits++
			}
			report.TotalLatency += res.Latency
			report.EnergyJ += res.Energy.Total()
			report.Service = append(report.Service, res.Latency)
			report.Stages = obs.AccumulateStages(report.Stages, res.Stages)
		}
	}
	report.MissRate = 1 - float64(report.CacheHits)/float64(report.Queries)
	report.MeanLatency = report.TotalLatency / sim.Duration(report.Queries)
	sorted := append([]sim.Duration(nil), report.Service...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	report.P99Latency = obs.QuantileDurations(sorted, 99)
	return report, nil
}
