package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/accel"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// ftlID converts the raw id used by test helpers back to an ftl.DBID.
func ftlID(v uint64) ftl.DBID { return ftl.DBID(v) }

// cacheCounts reads the query cache's hit and miss counters from the
// engine's metrics snapshot (both zero with no cache configured).
func cacheCounts(ds *DeepStore) (hits, misses int64) {
	c := ds.MetricsSnapshot().Counters
	return c["qcache_hits"], c["qcache_misses"]
}

// perfectQCN builds a deterministic QCN: a Hadamard front end and an
// all-0.5-weight FC with a sigmoid head, so identical queries score near 1.
func perfectQCN(fe int) *nn.Network {
	qcn := nn.MustNetwork("perfect-qcn", tensor.Shape{fe}, nn.CombineHadamard,
		nn.NewFC("sum", fe, 1, nn.ActSigmoid))
	fc := qcn.Layers[0].(*nn.FC)
	for i := range fc.W {
		fc.W[i] = 0.5
	}
	return qcn
}

// newEngine builds a DeepStore instance with a small TIR-style workload:
// a materialized feature database and a loaded SCN.
func newEngine(t *testing.T, nFeatures int) (*DeepStore, *workload.App, ModelID, uint64) {
	t.Helper()
	ds, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName("TIR")
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(1)
	db := workload.NewFeatureDB(app, nFeatures, 2)
	dbID, err := ds.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	data, err := nn.Marshal(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	modelID, err := ds.LoadModel(data)
	if err != nil {
		t.Fatal(err)
	}
	return ds, app, modelID, uint64(dbID)
}

func TestQueryReturnsTopK(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 200)
	q := workload.NewFeatureDB(app, 1, 99).Vectors[0]
	qid, err := ds.Query(QuerySpec{QFV: q, K: 5, Model: model, DB: ftlID(dbID)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.GetResults(qid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 5 {
		t.Fatalf("topK = %d results, want 5", len(res.TopK))
	}
	// Results sorted by descending score.
	for i := 1; i < len(res.TopK); i++ {
		if res.TopK[i].Score > res.TopK[i-1].Score {
			t.Error("topK not sorted")
		}
	}
	if res.Latency <= 0 {
		t.Error("no latency modeled")
	}
	if res.FeaturesScanned != 200 {
		t.Errorf("scanned %d features, want 200", res.FeaturesScanned)
	}
	if res.CacheHit {
		t.Error("first query reported a cache hit with no cache configured")
	}
}

// TestQueryMatchesBruteForce verifies the map-reduce sharding returns the
// same top-K as a direct scan.
func TestQueryMatchesBruteForce(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 300)
	q := workload.NewFeatureDB(app, 1, 123).Vectors[0]
	qid, err := ds.Query(QuerySpec{QFV: q, K: 7, Model: model, DB: ftlID(dbID)})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := ds.GetResults(qid)

	// Brute force reference.
	db := workload.NewFeatureDB(app, 300, 2)
	type pair struct {
		id    int64
		score float32
	}
	best := make([]pair, 0, 300)
	for i, v := range db.Vectors {
		best = append(best, pair{int64(i), app.SCN.Score(q, v)})
	}
	for i := 0; i < 7; i++ {
		maxJ := i
		for j := i + 1; j < len(best); j++ {
			if best[j].score > best[maxJ].score ||
				(best[j].score == best[maxJ].score && best[j].id < best[maxJ].id) {
				maxJ = j
			}
		}
		best[i], best[maxJ] = best[maxJ], best[i]
		if res.TopK[i].FeatureID != best[i].id {
			t.Fatalf("rank %d: got feature %d (%.4f), want %d (%.4f)",
				i, res.TopK[i].FeatureID, res.TopK[i].Score, best[i].id, best[i].score)
		}
	}
}

func TestQueryRange(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 100)
	q := workload.NewFeatureDB(app, 1, 5).Vectors[0]
	qid, err := ds.Query(QuerySpec{QFV: q, K: 3, Model: model, DB: ftlID(dbID), DBStart: 10, DBEnd: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := ds.GetResults(qid)
	if res.FeaturesScanned != 10 {
		t.Errorf("scanned %d, want 10", res.FeaturesScanned)
	}
	for _, e := range res.TopK {
		if e.FeatureID < 10 || e.FeatureID >= 20 {
			t.Errorf("result %d outside range", e.FeatureID)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 50)
	q := workload.NewFeatureDB(app, 1, 5).Vectors[0]
	bad := []QuerySpec{
		{QFV: q, K: 0, Model: model, DB: ftlID(dbID)},
		{QFV: q[:10], K: 1, Model: model, DB: ftlID(dbID)},
		{QFV: q, K: 1, Model: 999, DB: ftlID(dbID)},
		{QFV: q, K: 1, Model: model, DB: 999},
		{QFV: q, K: 1, Model: model, DB: ftlID(dbID), DBStart: 40, DBEnd: 30},
		{QFV: q, K: 1, Model: model, DB: ftlID(dbID), DBEnd: 51},
	}
	for i, spec := range bad {
		if _, err := ds.Query(spec); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestWriteDBValidation(t *testing.T) {
	ds, _ := New(DefaultOptions())
	if _, err := ds.WriteDB(nil); err == nil {
		t.Error("empty writeDB accepted")
	}
	if _, err := ds.WriteDB([][]float32{{1, 2}, {1}}); err == nil {
		t.Error("ragged writeDB accepted")
	}
}

func TestReadDBRoundTrip(t *testing.T) {
	ds, _, _, dbID := newEngine(t, 50)
	got, err := ds.ReadDB(ftlID(dbID), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("read %d features", len(got))
	}
	app, _ := workload.ByName("TIR")
	want := workload.NewFeatureDB(app, 50, 2).Vectors
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[5+i][j] {
				t.Fatal("readDB returned wrong data")
			}
		}
	}
	if _, err := ds.ReadDB(ftlID(dbID), 45, 10); err == nil {
		t.Error("out-of-range readDB accepted")
	}
}

func TestAppendDB(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 50)
	extra := workload.NewFeatureDB(app, 5, 77).Vectors
	if err := ds.AppendDB(ftlID(dbID), extra); err != nil {
		t.Fatal(err)
	}
	q := extra[0]
	qid, err := ds.Query(QuerySpec{QFV: q, K: 1, Model: model, DB: ftlID(dbID)})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := ds.GetResults(qid)
	if res.FeaturesScanned != 55 {
		t.Errorf("scanned %d, want 55", res.FeaturesScanned)
	}
	// Appending mismatched dims fails.
	if err := ds.AppendDB(ftlID(dbID), [][]float32{{1, 2, 3}}); err == nil {
		t.Error("mismatched append accepted")
	}
}

func TestQueryCacheHitPath(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 200)
	// A high-accuracy QCN: cosine-similarity surrogate network.
	qcn := app.QCN()
	qcn.InitRandom(3)
	// Use an idealized scorer QCN via SetQC with accuracy 0.95 and a
	// generous threshold, then issue the same query twice.
	if err := ds.SetQC(qcn, 0.95, 16, 0.5); err != nil {
		t.Fatal(err)
	}
	q := workload.NewFeatureDB(app, 1, 42).Vectors[0]
	id1, err := ds.Query(QuerySpec{QFV: q, K: 4, Model: model, DB: ftlID(dbID)})
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := ds.GetResults(id1)
	if r1.CacheHit {
		t.Fatal("cold query hit the cache")
	}
	id2, err := ds.Query(QuerySpec{QFV: q, K: 4, Model: model, DB: ftlID(dbID)})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := ds.GetResults(id2)
	if !r2.CacheHit {
		// The QCN is an untrained random network; an identical query may
		// still fall below threshold. Verify via a deterministic scorer.
		t.Skip("random QCN scored identical query below threshold; deterministic scorer covered elsewhere")
	}
	// A hit must be far cheaper than the miss and return the same top-K.
	if r2.Latency >= r1.Latency {
		t.Errorf("cache hit latency %v not below miss latency %v", r2.Latency, r1.Latency)
	}
	for i := range r2.TopK {
		if r2.TopK[i].FeatureID != r1.TopK[i].FeatureID {
			t.Errorf("hit top-K differs at rank %d", i)
		}
	}
	hits, misses := cacheCounts(ds)
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits, %d misses", hits, misses)
	}
}

// TestQueryCacheWithPerfectQCN uses a hand-built QCN that outputs 1 for
// identical queries, making the hit path deterministic.
func TestQueryCacheWithPerfectQCN(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 150)
	// For unit vectors q==d the dot product is large positive => score ~1.
	qcn := perfectQCN(app.SCN.FeatureElems())
	if err := ds.SetQC(qcn, 1.0, 8, 0.2); err != nil {
		t.Fatal(err)
	}
	q := workload.NewFeatureDB(app, 1, 42).Vectors[0]
	if _, err := ds.Query(QuerySpec{QFV: q, K: 3, Model: model, DB: ftlID(dbID)}); err != nil {
		t.Fatal(err)
	}
	id2, err := ds.Query(QuerySpec{QFV: q, K: 3, Model: model, DB: ftlID(dbID)})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := ds.GetResults(id2)
	if !r2.CacheHit {
		t.Fatal("identical query missed with perfect QCN")
	}
	if r2.FeaturesScanned != 3 {
		t.Errorf("hit scanned %d features, want 3 (the cached top-K)", r2.FeaturesScanned)
	}
}

// TestCacheHitsStayInScope: a cached answer answers one database, model and
// range, so only a query of that scope can hit it. The same vector over
// [0, 75) and then [75, 150) misses the second time and answers from
// [75, 150) alone; on a second, 10-feature database it misses again and
// names that database's pages. A repeat in a scope hits, and a
// whole-database entry survives AppendDB.
func TestCacheHitsStayInScope(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 150)
	db := ftlID(dbID)
	if err := ds.SetQC(perfectQCN(app.SCN.FeatureElems()), 1, 16, 0.2); err != nil {
		t.Fatal(err)
	}
	other, err := ds.WriteDB(workload.NewFeatureDB(app, 10, 3).Vectors)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.NewFeatureDB(app, 1, 99).Vectors[0]
	for i, c := range []struct {
		spec QuerySpec
		hit  bool
	}{
		{QuerySpec{QFV: q, K: 3, Model: model, DB: db, DBEnd: 75}, false},
		{QuerySpec{QFV: q, K: 3, Model: model, DB: db, DBStart: 75, DBEnd: 150}, false},
		{QuerySpec{QFV: q, K: 3, Model: model, DB: other}, false},
		{QuerySpec{QFV: q, K: 3, Model: model, DB: db, DBEnd: 75}, true},
		{QuerySpec{QFV: q, K: 3, Model: model, DB: db}, false},
	} {
		r := runQuery(t, ds, c.spec)
		if r.CacheHit != c.hit {
			t.Errorf("query %d: hit %v, want %v", i, r.CacheHit, c.hit)
		}
		st := ds.dbs[c.spec.DB]
		end := c.spec.DBEnd
		if end == 0 {
			end = st.meta.Layout.Features
		}
		assertSameTopK(t, fmt.Sprintf("query %d", i), r.TopK, referenceTopK(ds, scanKey{st: st, net: ds.models[model], start: c.spec.DBStart, end: end}, q, 3))
	}
	if err := ds.AppendDB(db, workload.NewFeatureDB(app, 10, 4).Vectors); err != nil {
		t.Fatal(err)
	}
	if r := runQuery(t, ds, QuerySpec{QFV: q, K: 3, Model: model, DB: db}); !r.CacheHit {
		t.Error("a whole-database entry missed after AppendDB")
	}
}

// TestDeliveredTopKIsTheCallers: a miss's delivered top-K does not share its
// array with the cache entry the miss fills, so a caller that edits it —
// through Query and GetResults or through Do — changes no later answer: the
// repeat query hits and equals the brute-force reference.
func TestDeliveredTopKIsTheCallers(t *testing.T) {
	for _, via := range []string{"Query", "Do"} {
		t.Run(via, func(t *testing.T) {
			ds, app, model, dbID := newEngine(t, 150)
			if err := ds.SetQC(perfectQCN(app.SCN.FeatureElems()), 1, 16, 0.2); err != nil {
				t.Fatal(err)
			}
			q := workload.NewFeatureDB(app, 1, 99).Vectors[0]
			spec := QuerySpec{QFV: q, K: 3, Model: model, DB: ftlID(dbID)}
			run := func() *QueryResult {
				if via == "Query" {
					return runQuery(t, ds, spec)
				}
				res, err := ds.Do([]QuerySpec{spec})
				if err != nil || res[0].Err != nil {
					t.Fatal(err, res[0].Err)
				}
				return res[0]
			}
			if r := run(); r.CacheHit {
				t.Fatal("the first query hit an empty cache")
			} else {
				for i := range r.TopK {
					r.TopK[i].FeatureID = 7
				}
			}
			again := run()
			if !again.CacheHit {
				t.Error("the repeat query missed")
			}
			want := referenceTopK(ds, scanKey{st: ds.dbs[spec.DB], net: ds.models[model], end: 150}, q, 3)
			assertSameTopK(t, via+" repeat", again.TopK, want)
		})
	}
}

// TestQCResidentKeysOnlyItsScope: qcResident keys each slot of the query's
// scope with the QCN's logit and every other slot NaN, through slot reuse
// that leaves the cache in one scope and out of it again, and over fewer
// slots than were written (as after Clear).
func TestQCResidentKeysOnlyItsScope(t *testing.T) {
	qcn := perfectQCN(4)
	r := &qcResident{Resident: qcn.Resident(3), qcn: qcn}
	a, b := cacheScope{db: 1}, cacheScope{db: 1, end: 2}
	q := []float32{1, 2, 3, 4}
	check := func(step string, want ...cacheScope) {
		t.Helper()
		keys, logits := make([]float64, len(want)), make([]float32, len(want))
		r.Logits(logits, q)
		for _, s := range []cacheScope{a, b} {
			r.Keys(keys, cacheQuery{scope: s, qfv: q})
			for i, w := range want {
				if in := w == s; in == math.IsNaN(keys[i]) || in && keys[i] != float64(logits[i]) {
					t.Fatalf("%s: slot %d of scope %+v keyed %v for a query of %+v (logit %v)", step, i, w, keys[i], s, logits[i])
				}
			}
		}
	}
	for _, step := range []struct {
		slot  int
		scope cacheScope
		want  []cacheScope
	}{
		{0, a, []cacheScope{a}},
		{1, b, []cacheScope{a, b}},
		{2, b, []cacheScope{a, b, b}},
		{0, b, []cacheScope{b, b, b}},
		{1, a, []cacheScope{b, a, b}},
		{1, b, []cacheScope{b, b, b}},
		{2, a, []cacheScope{b, b}},
	} {
		r.Put(step.slot, cacheQuery{scope: step.scope, qfv: q})
		check(fmt.Sprintf("put %d", step.slot), step.want...)
	}
}

// TestQCacheActivatesRecordsOnly: a lookup activates the QCN only for the
// logits that beat every logit before them in LRU order, so over a filling
// cache qcache_activations grows far slower than qcache_comparisons — at
// least once per lookup that finds an entry, never more than once per entry
// compared — and the score of every key is, bit for bit, the clamped
// ScoreAll score of its slot.
func TestQCacheActivatesRecordsOnly(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 20)
	qcn := app.QCN()
	qcn.InitRandom(3)
	const entries = 64
	if err := ds.SetQC(qcn, 1, entries, 0); err != nil {
		t.Fatal(err)
	}
	qs := workload.NewFeatureDB(app, 2*entries+1, 7).Vectors
	for _, q := range qs[:2*entries] {
		if _, err := ds.Query(QuerySpec{QFV: q, K: 3, Model: model, DB: ftlID(dbID)}); err != nil {
			t.Fatal(err)
		}
	}
	c := ds.MetricsSnapshot().Counters
	lookups, act, cmp := c["qcache_lookups"], c["qcache_activations"], c["qcache_comparisons"]
	if lookups != 2*entries || act < lookups-1 || 4*act > cmp {
		t.Errorf("%d lookups activated %d times for %d comparisons", lookups, act, cmp)
	}

	r := &qcResident{Resident: qcn.Resident(entries), qcn: qcn}
	for s, q := range qs[:entries] {
		r.Put(s, cacheQuery{qfv: q})
	}
	keys, want := make([]float64, entries), make([]float32, entries)
	r.Keys(keys, cacheQuery{qfv: qs[2*entries]})
	qcn.BatchScorer(entries).ScoreBatch(want, qs[2*entries], qs[:entries])
	for s, k := range keys {
		if got, w := r.Score(k), min(max(float64(want[s]), 0), 1); math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("slot %d: Score(%v) = %v, clamped ScoreBatch = %v", s, k, got, w)
		}
	}
}

// TestQueryOfAnotherWidthThanTheQCN: with a 200-dimension QCN over a
// 512-dimension TIR database every query is refused with ErrQCNWidth — the
// first, which finds the cache empty and used to be inserted, and the second,
// which used to panic comparing against it while holding the engine lock —
// through Query and QueryMulti alike, before it touches the cache, the clock
// or the result table. A QCN of the right width then serves as usual.
func TestQueryOfAnotherWidthThanTheQCN(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 50)
	if err := ds.SetQC(perfectQCN(200), 1, 16, 0.2); err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{QFV: workload.NewFeatureDB(app, 1, 42).Vectors[0], K: 3, Model: model, DB: ftlID(dbID)}
	before := ds.Stats()
	for i := 0; i < 2; i++ {
		if _, err := ds.Query(spec); !errors.Is(err, ErrQCNWidth) {
			t.Fatalf("query %d: err %v, want ErrQCNWidth", i, err)
		}
		if _, err := ds.QueryMulti([]QuerySpec{spec, spec}); !errors.Is(err, ErrQCNWidth) {
			t.Fatalf("multi query %d: err %v, want ErrQCNWidth", i, err)
		}
	}
	if after := ds.Stats(); after.Queries != before.Queries || after.SimTime != before.SimTime {
		t.Fatalf("refused queries moved the engine: %+v, then %+v", before, after)
	}
	if hits, misses := cacheCounts(ds); ds.qc.Len() != 0 || hits+misses != 0 {
		t.Fatalf("refused queries reached the cache: %d entries, %d lookups", ds.qc.Len(), hits+misses)
	}
	if err := ds.SetQC(perfectQCN(app.SCN.FeatureElems()), 1, 16, 0.2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		qid, err := ds.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := ds.GetResults(qid); res.CacheHit != (i == 1) {
			t.Fatalf("query %d: cache hit %v", i, res.CacheHit)
		}
	}
}

func TestDeclaredDBTimingOnly(t *testing.T) {
	ds, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("MIR")
	dbID, err := ds.DeclareDB(app.FeatureBytes(), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float32, app.SCN.FeatureElems())
	qid, err := ds.Query(QuerySpec{QFV: q, K: 10, Model: model, DB: dbID})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := ds.GetResults(qid)
	if res.Latency <= 0 || res.Energy.Total() <= 0 {
		t.Errorf("declared DB query has no cost: %+v", res)
	}
	if len(res.TopK) != 0 {
		t.Error("declared DB returned scores")
	}
	if _, err := ds.ReadDB(dbID, 0, 1); err == nil {
		t.Error("readDB on declared DB accepted")
	}
}

func TestLevelOverride(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 100)
	q := workload.NewFeatureDB(app, 1, 5).Vectors[0]
	lvl := accel.LevelChip
	qid, err := ds.Query(QuerySpec{QFV: q, K: 2, Model: model, DB: ftlID(dbID), Level: &lvl})
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := ds.GetResults(qid); res.Latency <= 0 {
		t.Error("chip-level query has no latency")
	}
}

func TestStatsAccumulate(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 60)
	q := workload.NewFeatureDB(app, 1, 5).Vectors[0]
	for i := 0; i < 3; i++ {
		if _, err := ds.Query(QuerySpec{QFV: q, K: 1, Model: model, DB: ftlID(dbID)}); err != nil {
			t.Fatal(err)
		}
	}
	s := ds.Stats()
	if s.Queries != 3 {
		t.Errorf("queries = %d", s.Queries)
	}
	if s.SimTime <= 0 {
		t.Error("no simulated time accumulated")
	}
}

func TestGetResultsUnknown(t *testing.T) {
	ds, _ := New(DefaultOptions())
	if _, err := ds.GetResults(42); err == nil {
		t.Error("unknown query id accepted")
	}
}

// TestResultTableBounded: the result table forgets fetched results once
// resultKeep newer ones have been fetched — the oldest id becomes unknown —
// while an unfetched result is never dropped and the newest stay
// re-fetchable with the same top-K and one more dma stage per fetch.
func TestResultTableBounded(t *testing.T) {
	ds, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	spec := QuerySpec{QFV: eqVectors(1, 3)[0], K: 2, Model: model, DB: db}
	query := func() QueryID {
		t.Helper()
		id, err := ds.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	unfetched := []QueryID{query(), query(), query()}
	const extra = 5
	var ids []QueryID
	var last *QueryResult
	for i := 0; i < resultKeep+extra; i++ {
		id := query()
		res, err := ds.GetResults(id)
		if err != nil {
			t.Fatal(err)
		}
		ids, last = append(ids, id), res
	}
	tableLen := func() int {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		return len(ds.queries)
	}
	if n := tableLen(); n != resultKeep+len(unfetched) {
		t.Fatalf("result table holds %d entries, want %d fetched + %d unfetched", n, resultKeep, len(unfetched))
	}
	for _, id := range ids[:extra] {
		if _, err := ds.GetResults(id); err == nil {
			t.Fatalf("query %d is still known after %d newer fetches", id, resultKeep)
		}
	}
	again, err := ds.GetResults(ids[len(ids)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(again.TopK) != len(last.TopK) || len(again.Stages) != len(last.Stages)+1 ||
		again.Stages[len(again.Stages)-1].Name != obs.StageDMA {
		t.Fatalf("re-fetch returned %d entries, stages %v; first fetch %d entries, stages %v",
			len(again.TopK), again.Stages, len(last.TopK), last.Stages)
	}
	for i := range last.TopK {
		if again.TopK[i] != last.TopK[i] {
			t.Fatalf("re-fetch top-K[%d] = %+v, first fetch %+v", i, again.TopK[i], last.TopK[i])
		}
	}
	// A re-fetch is not a new fetch, and the first fetch of an old result
	// evicts the oldest fetched one, never an unfetched one.
	for _, id := range unfetched {
		if _, err := ds.GetResults(id); err != nil {
			t.Fatalf("unfetched query %d was dropped: %v", id, err)
		}
	}
	if n := tableLen(); n != resultKeep {
		t.Fatalf("result table holds %d entries after fetching everything, want %d", n, resultKeep)
	}
}

func TestSetQCValidation(t *testing.T) {
	ds, _ := New(DefaultOptions())
	app, _ := workload.ByName("TIR")
	qcn := app.QCN()
	cases := []error{
		ds.SetQC(nil, 0.9, 10, 0.1),
		ds.SetQC(qcn, 0, 10, 0.1),
		ds.SetQC(qcn, 0.9, 0, 0.1),
		ds.SetQC(qcn, 0.9, 10, 1.5),
	}
	for i, err := range cases {
		if err == nil {
			t.Errorf("bad SetQC %d accepted", i)
		}
	}
}

func TestScoresAreFinite(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 40)
	q := workload.NewFeatureDB(app, 1, 9).Vectors[0]
	qid, _ := ds.Query(QuerySpec{QFV: q, K: 10, Model: model, DB: ftlID(dbID)})
	res, _ := ds.GetResults(qid)
	for _, e := range res.TopK {
		if math.IsNaN(float64(e.Score)) || math.IsInf(float64(e.Score), 0) {
			t.Errorf("score %v not finite", e.Score)
		}
	}
}
