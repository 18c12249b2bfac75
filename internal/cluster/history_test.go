package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// HistorySummary aggregates per-shard history stores: every fanned-out
// query appends one record on each shard it touches.
func TestHistorySummaryAggregates(t *testing.T) {
	app, err := workload.ByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(1)
	db := workload.NewFeatureDB(app, 120, 11)

	opts := core.DefaultOptions()
	opts.History = true
	opts.CacheAdmission = core.AdmissionLearned
	const shards = 3
	e, err := NewEngines(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteDB(db.Vectors); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadModel(app.SCN); err != nil {
		t.Fatal(err)
	}

	const queries = 5
	for q := 0; q < queries; q++ {
		if _, err := e.Query(db.Vectors[q], 4); err != nil {
			t.Fatal(err)
		}
	}
	hs := e.HistorySummary()
	if hs.Records != queries*shards || hs.Appended != queries*shards || hs.Retired != 0 {
		t.Fatalf("cluster history %+v, want %d records appended and retained", hs, queries*shards)
	}
	if hs.HotBytes == 0 || hs.ColdBytes == 0 {
		t.Fatalf("empty history regions: %+v", hs)
	}
}

// A history-off cluster aggregates to zeros.
func TestHistorySummaryDisabled(t *testing.T) {
	e, db := enginesFixture(t, 2, 60, core.DefaultOptions())
	if _, err := e.Query(db.Vectors[0], 3); err != nil {
		t.Fatal(err)
	}
	if hs := e.HistorySummary(); hs != (core.HistoryStats{}) {
		t.Fatalf("history-off cluster reported %+v", hs)
	}
}
