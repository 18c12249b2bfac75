package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestStageSumsMatchLatency: for every sweep shape, each query's recorded stage
// durations sum exactly (integer picoseconds) to its end-to-end latency — on
// the miss path, on the cache-hit path, and after repeated GetResults calls
// each of which appends a dma stage and extends the latency by the same
// amount.
func TestStageSumsMatchLatency(t *testing.T) {
	for _, shape := range scanShapes {
		t.Run(shape.name, func(t *testing.T) {
			opts := shape.on(t, DefaultOptions())
			ds, db, model, dbID := buildEngine(t, opts, "TextQA", 300)
			if err := ds.SetQC(perfectQCN(len(db.Vectors[0])), 1.0, 16, 0.2); err != nil {
				t.Fatal(err)
			}

			check := func(res *QueryResult, what string) {
				t.Helper()
				if len(res.Stages) == 0 {
					t.Fatalf("%s: no stages recorded", what)
				}
				if got := obs.SumStages(res.Stages); got != res.Latency {
					t.Fatalf("%s: stages sum to %v, latency %v (stages %+v)",
						what, got, res.Latency, res.Stages)
				}
			}

			// Miss path: first sight of this QFV scans the database.
			qfv := db.Vectors[5]
			qid, err := ds.Query(QuerySpec{QFV: qfv, K: 5, Model: model, DB: dbID})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ds.GetResults(qid)
			if err != nil {
				t.Fatal(err)
			}
			check(res, "miss")
			if res.CacheHit {
				t.Fatal("first query reported a cache hit")
			}

			// A second GetResults appends another dma stage; the invariant
			// must survive the mutation.
			res2, err := ds.GetResults(qid)
			if err != nil {
				t.Fatal(err)
			}
			check(res2, "miss+2xDMA")
			if len(res2.Stages) != len(res.Stages)+1 {
				t.Fatalf("second GetResults added %d stages, want 1",
					len(res2.Stages)-len(res.Stages))
			}

			// Hit path: the identical QFV scores ~1 under the perfect QCN and
			// reranks the cached top-K instead of scanning.
			qid2, err := ds.Query(QuerySpec{QFV: qfv, K: 5, Model: model, DB: dbID})
			if err != nil {
				t.Fatal(err)
			}
			hit, err := ds.GetResults(qid2)
			if err != nil {
				t.Fatal(err)
			}
			if !hit.CacheHit {
				t.Fatal("repeated query missed the cache")
			}
			check(hit, "hit")
		})
	}
}

// TestReplayStageTotals: ReplayTrace's aggregated stage stats sum to its
// TotalLatency, and Service carries one entry per trace query.
func TestReplayStageTotals(t *testing.T) {
	ds, _, model, dbID := buildEngine(t, DefaultOptions(), "TextQA", 200)
	tr := workload.GenerateTrace(workload.TraceConfig{
		Universe: 8, Length: 20, Dist: workload.Zipfian, Alpha: 0.7, Seed: 3,
	})
	report, err := ds.ReplayTrace(tr, model, dbID, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Service) != report.Queries {
		t.Fatalf("%d service times for %d queries", len(report.Service), report.Queries)
	}
	if got := obs.SumStageStats(report.Stages); got != report.TotalLatency {
		t.Fatalf("stage totals %v != total latency %v", got, report.TotalLatency)
	}
	var serviceSum = report.Service[0]
	for _, s := range report.Service[1:] {
		serviceSum += s
	}
	if serviceSum != report.TotalLatency {
		t.Fatalf("service times sum to %v, total %v", serviceSum, report.TotalLatency)
	}
}

// chromeTraceSHA256 is the SHA-256 of TestEngineObservability's Chrome trace.
const chromeTraceSHA256 = "31a41bc09127c7ebd04b0592bcb9e0106526c868ecb35a92901bd0e886fd8fb0"

// TestEngineObservability: the engine's metrics snapshot counts what the run
// did, and the span trace exports as valid Chrome trace-event JSON whose
// per-query stage spans tile the enclosing query span.
func TestEngineObservability(t *testing.T) {
	ds, db, model, dbID := buildEngine(t, DefaultOptions(), "TextQA", 150)
	const n = 4
	for i := 0; i < n; i++ {
		qid, err := ds.Query(QuerySpec{QFV: db.Vectors[i], K: 3, Model: model, DB: dbID})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.GetResults(qid); err != nil {
			t.Fatal(err)
		}
	}

	snap := ds.MetricsSnapshot()
	if got := snap.Counters["core_queries"]; got != n {
		t.Errorf("core_queries = %d, want %d", got, n)
	}
	if got := snap.Counters["core_get_results"]; got != n {
		t.Errorf("core_get_results = %d, want %d", got, n)
	}
	if snap.Counters["flash_page_reads"] == 0 {
		t.Error("no flash page reads folded into the snapshot")
	}
	if _, ok := snap.Histograms["core_query_latency_ms"]; !ok {
		t.Error("missing core_query_latency_ms histogram")
	}
	if _, ok := snap.Gauges["sim_time_ms"]; !ok {
		t.Error("missing sim_time_ms gauge")
	}

	var buf bytes.Buffer
	if err := ds.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// The export is simulated-clock only, so its bytes are fixed: a change to
	// how the tracer stores spans must not move them.
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != chromeTraceSHA256 {
		t.Errorf("Chrome trace of the fixed scenario hashes to %s, want %s", got, chromeTraceSHA256)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TID  int64   `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Each query track: one "query" span whose duration equals the sum of
	// the stage spans emitted with it. The dma spans land on the same track
	// later, when GetResults extends the result's latency, so they sit
	// outside the query span (the QueryResult-level invariant above covers
	// them). µs floats derive from the same integer picoseconds, so only
	// float-addition error separates the sums.
	queryDur := map[int64]float64{}
	stageSum := map[int64]float64{}
	sawDMA := false
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "core" || ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "query":
			queryDur[ev.TID] = ev.Dur
		case obs.StageDMA:
			sawDMA = true
		default:
			stageSum[ev.TID] += ev.Dur
		}
	}
	if len(queryDur) != n {
		t.Fatalf("%d query spans, want %d", len(queryDur), n)
	}
	if !sawDMA {
		t.Error("no dma spans in the trace")
	}
	for tid, dur := range queryDur {
		if diff := stageSum[tid] - dur; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("query %d: stage spans sum to %gµs, query span %gµs", tid, stageSum[tid], dur)
		}
	}
}

// TestTracerDropsSurfaceInMetrics: obs_tracer_dropped_spans is in every
// snapshot, 0 while the trace is whole, and moves by exactly the tracer's own
// drop count once a run overflows DefaultTraceCap — an exact (TimingWindow 0)
// scan of ESTP declared at 4 GiB records more page-read spans than one
// tracer retains. The drop count is pinned: page reads are simulated, so it
// moves only when the event model or the tracer's cap accounting does.
func TestTracerDropsSurfaceInMetrics(t *testing.T) {
	small, db, model, dbID := buildEngine(t, DefaultOptions(), "TextQA", 150)
	qid, err := small.Query(QuerySpec{QFV: db.Vectors[0], K: 3, Model: model, DB: dbID})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.GetResults(qid); err != nil {
		t.Fatal(err)
	}
	if got, ok := small.MetricsSnapshot().Counters["obs_tracer_dropped_spans"]; !ok || got != 0 {
		t.Errorf("whole trace: obs_tracer_dropped_spans = %d (present %v), want 0 and present", got, ok)
	}

	app, err := workload.ByName("ESTP")
	if err != nil {
		t.Fatal(err)
	}
	// An exact scan traces every page read: 4 GiB of ESTP features at
	// channel level read 262 144 pages, twice the cap.
	opts := DefaultOptions()
	opts.TimingWindow = 0
	ds, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	fb := app.FeatureBytes()
	declared, err := ds.DeclareDB(fb, (4<<30)/fb)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := ds.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	qfv := make([]float32, app.SCN.FeatureElems())
	if _, err := ds.Query(QuerySpec{QFV: qfv, K: 3, Model: paper, DB: declared}); err != nil {
		t.Fatal(err)
	}
	dropped := ds.Tracer().Dropped()
	if kept := len(ds.Tracer().Spans()); dropped != 131074 || kept != obs.DefaultTraceCap {
		t.Fatalf("ESTP exact scan kept %d spans and dropped %d, want the cap and 131 074", kept, dropped)
	}
	if got := ds.MetricsSnapshot().Counters["obs_tracer_dropped_spans"]; got != dropped {
		t.Errorf("obs_tracer_dropped_spans = %d, tracer dropped %d", got, dropped)
	}
}
