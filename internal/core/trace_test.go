package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestReplayTraceWithCache(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 100)
	// Perfect QCN (all-0.5 weights over a Hadamard front end) so repeated
	// intents hit deterministically.
	fe := app.SCN.FeatureElems()
	qcn := perfectQCN(fe)
	if err := ds.SetQC(qcn, 1.0, 32, 0.2); err != nil {
		t.Fatal(err)
	}
	tr := workload.GenerateTrace(workload.TraceConfig{
		Universe: 8, Length: 60, Dist: workload.Zipfian, Alpha: 0.7, Seed: 5,
	})
	report, err := ds.ReplayTrace(tr, model, ftlID(uint64(dbID)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Queries != 60 {
		t.Errorf("queries = %d", report.Queries)
	}
	// With 8 intents, zero jitter, and 32 entries, nearly everything after
	// the first occurrences must hit.
	if report.CacheHits < 40 {
		t.Errorf("cache hits = %d, want > 40", report.CacheHits)
	}
	if report.MissRate <= 0 || report.MissRate >= 0.5 {
		t.Errorf("miss rate = %v", report.MissRate)
	}
	if report.MeanLatency <= 0 || report.P99Latency < report.MeanLatency {
		t.Errorf("latency stats inconsistent: mean %v, p99 %v", report.MeanLatency, report.P99Latency)
	}
	if report.EnergyJ <= 0 {
		t.Error("no energy accumulated")
	}
}

func TestReplayTraceWithoutCache(t *testing.T) {
	ds, _, model, dbID := newEngine(t, 50)
	tr := workload.GenerateTrace(workload.TraceConfig{
		Universe: 5, Length: 10, Dist: workload.Uniform, Seed: 2,
	})
	report, err := ds.ReplayTrace(tr, model, ftlID(uint64(dbID)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.CacheHits != 0 || report.MissRate != 1 {
		t.Errorf("cacheless replay reported hits: %+v", report)
	}
}

func TestReplayTraceValidation(t *testing.T) {
	ds, _, model, dbID := newEngine(t, 20)
	if _, err := ds.ReplayTrace(nil, model, ftlID(uint64(dbID)), 1); err == nil {
		t.Error("nil trace accepted")
	}
	tr := workload.GenerateTrace(workload.TraceConfig{Universe: 2, Length: 2, Seed: 1})
	if _, err := ds.ReplayTrace(tr, 999, ftlID(uint64(dbID)), 1); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := ds.ReplayTrace(tr, model, 999, 1); err == nil {
		t.Error("unknown db accepted")
	}
}

// TestReplayTraceMultiMatchesReplay: replaying through shared sweeps
// preserves every per-query observable of the sequential replay — cache
// hits, per-query service times, total latency, and energy — on an
// identically constructed engine. Only the stage naming differs
// (shared_scan replaces scan in the breakdown).
func TestReplayTraceMultiMatchesReplay(t *testing.T) {
	tr := workload.GenerateTrace(workload.TraceConfig{
		Universe: 8, Length: 30, Dist: workload.Zipfian, Alpha: 0.7, Seed: 5,
	})
	seq, app, model, dbID := newEngine(t, 100)
	if err := seq.SetQC(perfectQCN(app.SCN.FeatureElems()), 1.0, 32, 0.2); err != nil {
		t.Fatal(err)
	}
	want, err := seq.ReplayTrace(tr, model, ftlID(dbID), 3)
	if err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{1, 4, 7} {
		multi, app2, model2, dbID2 := newEngine(t, 100)
		if err := multi.SetQC(perfectQCN(app2.SCN.FeatureElems()), 1.0, 32, 0.2); err != nil {
			t.Fatal(err)
		}
		got, err := multi.ReplayTraceMulti(tr, model2, ftlID(dbID2), 3, batch)
		if err != nil {
			t.Fatal(err)
		}
		if got.Queries != want.Queries || got.CacheHits != want.CacheHits {
			t.Fatalf("batch %d: %d queries / %d hits, want %d / %d",
				batch, got.Queries, got.CacheHits, want.Queries, want.CacheHits)
		}
		if got.TotalLatency != want.TotalLatency || got.EnergyJ != want.EnergyJ {
			t.Fatalf("batch %d: latency %v energy %v, want %v %v",
				batch, got.TotalLatency, got.EnergyJ, want.TotalLatency, want.EnergyJ)
		}
		for i := range want.Service {
			if got.Service[i] != want.Service[i] {
				t.Fatalf("batch %d query %d: service %v, want %v",
					batch, i, got.Service[i], want.Service[i])
			}
		}
	}
}

// TestReplayTraceMultiValidation rejects empty traces and bad widths.
func TestReplayTraceMultiValidation(t *testing.T) {
	ds, _, model, dbID := newEngine(t, 20)
	tr := workload.GenerateTrace(workload.TraceConfig{Universe: 2, Length: 4, Dist: workload.Uniform, Seed: 1})
	if _, err := ds.ReplayTraceMulti(nil, model, ftlID(dbID), 2, 2); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := ds.ReplayTraceMulti(tr, model, ftlID(dbID), 2, 0); err == nil {
		t.Error("batch 0 accepted")
	}
	if _, err := ds.ReplayTraceMulti(tr, model, ftlID(dbID+99), 2, 2); err == nil {
		t.Error("unknown db accepted")
	}
	// A failed group names its first trace query, as ReplayTrace does.
	want := fmt.Sprintf("core: trace query %d:", tr.Queries[0].ID)
	if _, err := ds.ReplayTraceMulti(tr, model+99, ftlID(dbID), 2, 2); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("unknown model: err = %v, want prefix %q", err, want)
	}
}
