package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

func TestDeleteDB(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 50)
	free0 := ds.dev.FTL.FreeBlocks()
	if err := ds.DeleteDB(ftlID(dbID)); err != nil {
		t.Fatal(err)
	}
	if ds.dev.FTL.FreeBlocks() <= free0 {
		t.Error("delete did not free flash")
	}
	q := workload.NewFeatureDB(app, 1, 5).Vectors[0]
	if _, err := ds.Query(QuerySpec{QFV: q, K: 1, Model: model, DB: ftlID(dbID)}); err == nil {
		t.Error("query against deleted DB accepted")
	}
	if err := ds.DeleteDB(ftlID(dbID)); err == nil {
		t.Error("double delete accepted")
	}
}

func TestCompactFlashKeepsQueriesWorking(t *testing.T) {
	ds, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("TIR")
	app.SCN.InitRandom(1)
	model, err := ds.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	// Create several databases, delete some to fragment, compact, then
	// query a survivor.
	var ids []uint64
	for i := 0; i < 4; i++ {
		db := workload.NewFeatureDB(app, 40, int64(i))
		id, err := ds.WriteDB(db.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, uint64(id))
	}
	if err := ds.DeleteDB(ftlID(ids[0])); err != nil {
		t.Fatal(err)
	}
	if err := ds.DeleteDB(ftlID(ids[2])); err != nil {
		t.Fatal(err)
	}
	ds.CompactFlash()
	q := workload.NewFeatureDB(app, 1, 99).Vectors[0]
	qid, err := ds.Query(QuerySpec{QFV: q, K: 3, Model: model, DB: ftlID(ids[1])})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.GetResults(qid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 3 {
		t.Errorf("post-compaction query returned %d results", len(res.TopK))
	}
}

func TestCheckpoint(t *testing.T) {
	ds, _, _, _ := newEngine(t, 30)
	img, err := ds.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) == 0 {
		t.Error("empty checkpoint image")
	}
}

// TestDeleteDBDropsItsCachedAnswers: a deleted database's cached answers can
// never hit again, so DeleteDB drops them (core_qcache_clears) rather than
// leave them to be charged on every later lookup: after 8 queries on one
// database fill the 4-entry cache and the database is deleted, a query on
// another database compares no entries.
func TestDeleteDBDropsItsCachedAnswers(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 40)
	other, err := ds.WriteDB(workload.NewFeatureDB(app, 40, 7).Vectors)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetQC(perfectQCN(app.SCN.FeatureElems()), 1, 4, 0.2); err != nil {
		t.Fatal(err)
	}
	qs := workload.NewFeatureDB(app, 9, 11).Vectors
	for _, q := range qs[:8] {
		runQuery(t, ds, QuerySpec{QFV: q, K: 3, Model: model, DB: ftlID(dbID)})
	}
	if n := ds.qc.Len(); n != 4 {
		t.Fatalf("cache holds %d entries before the delete, want 4", n)
	}
	if err := ds.DeleteDB(ftlID(dbID)); err != nil {
		t.Fatal(err)
	}
	before := ds.MetricsSnapshot().Counters
	r := runQuery(t, ds, QuerySpec{QFV: qs[8], K: 3, Model: model, DB: other})
	after := ds.MetricsSnapshot().Counters
	if n := after["qcache_comparisons"] - before["qcache_comparisons"]; n != 0 {
		t.Errorf("the lookup compared %d entries of the deleted database, want 0", n)
	}
	if lat, _ := stageDur(r, obs.StageQCacheLookup); lat != 0 {
		t.Errorf("qcache_lookup charged %v for an empty cache", lat)
	}
	if n := after["core_qcache_clears"]; n != 1 {
		t.Errorf("core_qcache_clears = %d, want 1", n)
	}
}
