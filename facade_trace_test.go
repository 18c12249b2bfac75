package deepstore

import (
	"bytes"
	"testing"
)

// TestFacadeTraceRoundTrip exercises trace generation, persistence, and
// engine replay through the public facade.
func TestFacadeTraceRoundTrip(t *testing.T) {
	tr := GenerateTrace(TraceConfig{
		Universe: 10, Length: 30, Dist: Zipfian, Alpha: 0.7, Seed: 4,
	})
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Queries) != 30 {
		t.Fatalf("loaded %d queries", len(loaded.Queries))
	}

	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := AppByName("TextQA")
	app.SCN.InitRandom(2)
	db := NewFeatureDB(app, 80, 3)
	dbID, err := sys.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sys.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.ReplayTrace(loaded, model, dbID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Queries != 30 || report.MeanLatency <= 0 {
		t.Errorf("report = %+v", report)
	}
}

// TestFacadeShardedScan exercises the multi-SSD path through the facade.
func TestFacadeShardedScan(t *testing.T) {
	app, _ := AppByName("MIR")
	res, err := ShardedScan(2, app, LevelChannel, DefaultDeviceConfig(), 128_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features != 128_000 || res.Makespan <= 0 {
		t.Errorf("cluster result = features %d, makespan %v", res.Features, res.Makespan)
	}
	if len(res.PerDevice) != 2 {
		t.Errorf("%d shards", len(res.PerDevice))
	}
}
