package exp

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestLatencyBreakdown: the breakdown replay succeeds, its stage totals sum
// exactly to the end-to-end latency (LatencyBreakdown itself errors
// otherwise, but assert here too so a regression names the numbers), the
// cache produces hits so all four stages appear, and the table renders.
func TestLatencyBreakdown(t *testing.T) {
	cfg := BreakdownConfig{Features: 400, Queries: 24, K: 5, Seed: 7,
		QCEntries: 64, QCThreshold: 0.2}
	r, err := LatencyBreakdown(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.SumStageStats(r.Report.Stages); got != r.Report.TotalLatency {
		t.Fatalf("stage totals %v != end-to-end latency %v", got, r.Report.TotalLatency)
	}
	if r.Report.CacheHits == 0 {
		t.Error("deterministic QCN produced no cache hits")
	}
	names := map[string]bool{}
	for _, s := range r.Report.Stages {
		names[s.Name] = true
	}
	for _, want := range []string{obs.StageQCacheLookup, obs.StageScan, obs.StageRerank, obs.StageDMA} {
		if !names[want] {
			t.Errorf("stage %q missing from breakdown", want)
		}
	}
	if len(r.Snapshot.Counters) == 0 {
		t.Error("empty metrics snapshot")
	}
	res, err := breakdownResult(r)
	checkResult(t, res, err)
	tb := res.Tables[0]
	if len(tb.Header) != 5 {
		t.Errorf("header has %d columns, want 5", len(tb.Header))
	}
	// One row per stage plus the trailing total row.
	if len(tb.Rows) != len(r.Report.Stages)+1 {
		t.Errorf("%d rows for %d stages", len(tb.Rows), len(r.Report.Stages))
	}
	if !strings.HasPrefix(tb.Text(), "queries=24 hits=") {
		t.Errorf("headline caption missing: %q", tb.Text())
	}
	// The two observability artifacts: the snapshot, and a Chrome trace
	// that actually holds events (the container format is checked in
	// internal/obs and internal/core).
	if len(res.Artifacts) != 2 || res.Artifacts[0].Name != "metrics" || res.Artifacts[1].Name != "trace" {
		t.Fatalf("artifacts %+v, want metrics and trace", res.Artifacts)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(res.Artifacts[0].Data, &snap); err != nil || len(snap.Counters) == 0 {
		t.Errorf("metrics artifact: %v, %d counters", err, len(snap.Counters))
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(res.Artifacts[1].Data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("trace artifact: %v, %d events", err, len(trace.TraceEvents))
	}
}

func TestLatencyBreakdownValidation(t *testing.T) {
	if _, err := LatencyBreakdown(BreakdownConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}
