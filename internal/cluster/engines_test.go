package cluster

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// enginesFixture builds a shards-way cluster over a TextQA feature database.
// A 1-shard fixture over the same features is the unsplit oracle.
func enginesFixture(t *testing.T, shards, features int, opts core.Options) (*Engines, *workload.FeatureDB) {
	t.Helper()
	app, err := workload.ByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(1)
	db := workload.NewFeatureDB(app, features, 11)
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
	return e, db
}

// TestEnginesMatchSingleEngine: a 3-shard cluster's merged top-K carries the
// same global feature IDs and scores as one engine holding the whole
// database. ObjectIDs are physical flash addresses and legitimately differ
// across deployments, so they are excluded from the comparison.
func TestEnginesMatchSingleEngine(t *testing.T) {
	const features, k = 900, 10
	e, db := enginesFixture(t, 3, features, core.DefaultOptions())

	app, _ := workload.ByName("TextQA")
	app.SCN.InitRandom(1)
	single, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dbID, err := single.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := single.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	qid, err := single.Query(core.QuerySpec{QFV: db.Vectors[5], K: k, Model: model, DB: dbID})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.GetResults(qid)
	if err != nil {
		t.Fatal(err)
	}

	ans, err := e.Query(db.Vectors[5], k)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.TopK) != len(ref.TopK) {
		t.Fatalf("cluster returned %d entries, single engine %d", len(ans.TopK), len(ref.TopK))
	}
	for i := range ref.TopK {
		if ans.TopK[i].FeatureID != ref.TopK[i].FeatureID || ans.TopK[i].Score != ref.TopK[i].Score {
			t.Fatalf("entry %d: cluster (%d, %v) != single (%d, %v)", i,
				ans.TopK[i].FeatureID, ans.TopK[i].Score, ref.TopK[i].FeatureID, ref.TopK[i].Score)
		}
	}
	if ans.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
	if ans.EnergyJ <= 0 {
		t.Error("non-positive energy")
	}
}

// TestEnginesBatchMatchesSingleQueries: the batch path answers exactly like
// one-at-a-time submission.
func TestEnginesBatchMatchesSingleQueries(t *testing.T) {
	const features, k = 600, 5
	e, db := enginesFixture(t, 2, features, core.DefaultOptions())
	qfvs := [][]float32{db.Vectors[0], db.Vectors[101], db.Vectors[599]}
	batch, err := e.Queries(qfvs, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qfvs) {
		t.Fatalf("%d answers for %d queries", len(batch), len(qfvs))
	}
	for i, q := range qfvs {
		one, err := e.Query(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(one.TopK) != len(batch[i].TopK) {
			t.Fatalf("query %d: batch %d entries, single %d", i, len(batch[i].TopK), len(one.TopK))
		}
		for j := range one.TopK {
			if batch[i].TopK[j] != one.TopK[j] {
				t.Fatalf("query %d entry %d: batch %+v != single %+v", i, j, batch[i].TopK[j], one.TopK[j])
			}
		}
	}
}

// TestEnginesShardBalance: WriteDB splits a non-divisible database to within
// one feature per shard and remaps the global top-1 correctly (querying a
// vector that lives in the last shard must surface its own global index).
func TestEnginesSelfQueryFindsGlobalIndex(t *testing.T) {
	const features = 301
	e, db := enginesFixture(t, 3, features, core.DefaultOptions())
	// Feature 300 lives in the last shard; with a trained-free random SCN the
	// self-comparison is not guaranteed to be rank 1, but the global index
	// must appear with the same score as a single engine gives it.
	ans, err := e.Query(db.Vectors[300], 301)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, entry := range ans.TopK {
		if entry.FeatureID == 300 {
			found = true
		}
		if entry.FeatureID < 0 || entry.FeatureID >= features {
			t.Fatalf("entry has out-of-range global feature ID %d", entry.FeatureID)
		}
	}
	if !found {
		t.Error("global index of the probed feature missing from full top-K")
	}
}

func TestEnginesValidation(t *testing.T) {
	if _, err := NewEngines(0, core.DefaultOptions()); err == nil {
		t.Error("zero engines accepted")
	}
	e, err := NewEngines(2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Queries([][]float32{{1}}, 1); err == nil {
		t.Error("query before WriteDB/LoadModel accepted")
	}
	if err := e.WriteDB([][]float32{{1, 2}}); err == nil {
		t.Error("fewer features than shards accepted")
	}
	app, _ := workload.ByName("TextQA")
	app.SCN.InitRandom(1)
	db := workload.NewFeatureDB(app, 64, 5)
	if err := e.WriteDB(db.Vectors); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadModel(app.SCN); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Queries(nil, 5); err == nil {
		t.Error("empty batch accepted")
	}
	if e.Shards() != 2 {
		t.Errorf("Shards() = %d", e.Shards())
	}
	if e.Engine(0) == nil || e.Engine(1) == nil {
		t.Error("nil shard engine")
	}
}

// queryEach answers qfvs one Query at a time: the oracle for the batch path.
func queryEach(t *testing.T, e *Engines, qfvs [][]float32, k int) []Answer {
	t.Helper()
	out := make([]Answer, len(qfvs))
	for i, q := range qfvs {
		a, err := e.Query(q, k)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = a
	}
	return out
}

// assertSameAnswers fails unless every batch answer equals the one-at-a-time
// oracle's on the merged top-K and every simulated figure: makespan, energy,
// scanned features and prune accounting.
func assertSameAnswers(t *testing.T, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if !reflect.DeepEqual(g.TopK, w.TopK) || g.Makespan != w.Makespan || g.EnergyJ != w.EnergyJ ||
			g.FeaturesScanned != w.FeaturesScanned || g.Prune != w.Prune || g.Degraded || w.Degraded {
			t.Fatalf("query %d: batch %+v, one at a time %+v", i, g, w)
		}
	}
}

// TestEnginesSharedMatchesQueries: Queries answers a batch exactly like a
// loop of Query on an identically built cluster, while each shard issues one
// simulated scan per batch instead of one per query.
func TestEnginesSharedMatchesQueries(t *testing.T) {
	const features, k = 600, 5
	each, db := enginesFixture(t, 3, features, core.DefaultOptions())
	batched, _ := enginesFixture(t, 3, features, core.DefaultOptions())
	qfvs := [][]float32{db.Vectors[0], db.Vectors[101], db.Vectors[599], db.Vectors[7]}

	want := queryEach(t, each, qfvs, k)
	got, err := batched.Queries(qfvs, k)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, got, want)
	for s := 0; s < batched.Shards(); s++ {
		snap := batched.Engine(s).MetricsSnapshot()
		if n := snap.Counters["core_shared_scans"]; n != 1 {
			t.Fatalf("shard %d: core_shared_scans = %d, want 1", s, n)
		}
		batchReads := snap.Counters["flash_page_reads"]
		eachReads := each.Engine(s).MetricsSnapshot().Counters["flash_page_reads"]
		if batchReads >= eachReads {
			t.Fatalf("shard %d: the batch read %d flash pages, one at a time %d — no amortization",
				s, batchReads, eachReads)
		}
	}
}
