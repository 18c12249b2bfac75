package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestScoreRangeParallelMatchesSerial: the sweep — at one worker and at more
// workers than this machine may have cores — returns byte-identical top-K
// (IDs, scores, ObjectIDs, order) to the serial brute-force reference across K
// values and ranges that do not align with channel boundaries (the default
// geometry has 32 channels; ranges below start and end mid-stripe).
func TestScoreRangeParallelMatchesSerial(t *testing.T) {
	const features = 2000
	ds, _, model, dbID := buildEngine(t, DefaultOptions(), "TextQA", features)
	st := ds.dbs[dbID]
	q := st.vectors[17] // a real vector: scores spread across the full range

	cases := []struct {
		name       string
		start, end int64
	}{
		{"full", 0, features},
		{"mid-stripe", 7, 1953},
		{"one-channel-span", 13, 14},
		{"sub-stripe", 5, 29},
		{"tail", 1999, 2000},
	}
	for _, k := range []int{1, 10, 100} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("K=%d/%s", k, c.name), func(t *testing.T) {
				key := scanKey{st: st, net: ds.models[model], start: c.start, end: c.end}
				want := referenceTopK(ds, key, q, k)
				for _, workers := range []int{1, 4} {
					got, _ := sweepOne(ds, key, q, k, workers)
					assertSameTopK(t, fmt.Sprintf("workers=%d", workers), got, want)
				}
			})
		}
	}
}

// TestSweepMatchesReference: on the small clustered device, where the pruning
// tier and the int8 table do real work, the sweep's top-K still equals the
// brute-force reference for every width, worker count and gather batch — and
// with the tier active every member's accounting conserves the range
// (scanned + skipped == range) and never skips more stripes than it checked.
func TestSweepMatchesReference(t *testing.T) {
	const features = 131
	net := pruneTestNet()
	vectors := clusteredVectors(features, 9)
	for _, c := range []struct {
		name         string
		prune, quant bool
	}{
		{"dense", false, false},
		{"prune", true, false},
		{"int8", false, true},
	} {
		for _, batch := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/B=%d", c.name, batch), func(t *testing.T) {
				opts := pruneTestOpts(c.prune)
				opts.Quantized, opts.scoreBatch = c.quant, batch
				ds, model, dbID := buildPruneEngine(t, opts, net, vectors)
				qfvs := make([][]float32, 7)
				ks := make([]int, len(qfvs))
				for i := range qfvs {
					qfvs[i], ks[i] = vectors[(i*13)%features], 1+(i+2)%5
				}
				var skipped int64
				for _, r := range [][2]int64{{0, features}, {3, 125}, {9, 12}, {130, 131}} {
					key := scanKey{st: ds.dbs[dbID], net: ds.models[model], start: r[0], end: r[1]}
					for _, nq := range []int{1, len(qfvs)} {
						for _, workers := range []int{1, 4} {
							label := fmt.Sprintf("[%d,%d) Q=%d workers=%d", r[0], r[1], nq, workers)
							tops, pss := sweepAnswers(ds, key, qfvs[:nq], ks[:nq], workers)
							for j := range tops {
								assertSameTopK(t, fmt.Sprintf("%s member %d", label, j), tops[j], referenceTopK(ds, key, qfvs[j], ks[j]))
								if pss[j].StripesSkipped > pss[j].StripesChecked || pss[j].FeaturesSkipped > r[1]-r[0] {
									t.Fatalf("%s member %d: impossible accounting %+v", label, j, pss[j])
								}
								if !c.prune && pss[j] != (PruneStats{}) {
									t.Fatalf("%s member %d: tierless sweep reported %+v", label, j, pss[j])
								}
								skipped += pss[j].FeaturesSkipped
							}
						}
					}
				}
				if c.prune && skipped == 0 {
					t.Fatal("pruned sweep never skipped a feature on the clustered database")
				}
			})
		}
	}
}

// TestConcurrentQueries: concurrent Query/GetResults/WriteDB/Stats callers
// race-free and fully accounted. Fails under -race on the pre-mutex engine
// (concurrent map writes on queries, torn stats).
func TestConcurrentQueries(t *testing.T) {
	ds, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("TextQA")
	app.SCN.InitRandom(1)
	db := workload.NewFeatureDB(app, 300, 7)
	dbID, err := ds.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetQC(app.QCN(), 0.95, 16, 0.05); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				qid, err := ds.Query(QuerySpec{QFV: db.Vectors[(w*perWorker+i)%300], K: 5, Model: model, DB: dbID})
				if err != nil {
					errs <- err
					return
				}
				res, err := ds.GetResults(qid)
				if err != nil {
					errs <- err
					return
				}
				if len(res.TopK) == 0 || res.Latency <= 0 {
					errs <- fmt.Errorf("worker %d: empty result", w)
					return
				}
				ds.Stats()
				cacheCounts(ds)
			}
		}(w)
	}
	// Interleave metadata traffic on other databases.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			extra := workload.NewFeatureDB(app, 10, int64(100+i))
			id, err := ds.WriteDB(extra.Vectors)
			if err != nil {
				errs <- err
				return
			}
			if _, err := ds.ReadDB(id, 0, 5); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := ds.Stats().Queries; got != workers*perWorker {
		t.Errorf("accounted %d queries, want %d", got, workers*perWorker)
	}
}

// TestBatchQueriesMatchSerial: submitting a whole batch before fetching any
// result yields the same per-query results and the same aggregate simulated
// time as interleaved Query/GetResults pairs.
func TestBatchQueriesMatchSerial(t *testing.T) {
	build := func() (*DeepStore, ModelID, []QuerySpec) {
		ds, err := New(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		app, _ := workload.ByName("TextQA")
		app.SCN.InitRandom(1)
		db := workload.NewFeatureDB(app, 400, 21)
		dbID, err := ds.WriteDB(db.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		model, err := ds.LoadModelNetwork(app.SCN)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]QuerySpec, 12)
		for i := range specs {
			specs[i] = QuerySpec{QFV: db.Vectors[i*7%400], K: 5, Model: model, DB: dbID}
		}
		return ds, model, specs
	}

	dsSerial, _, specs := build()
	serialResults := make([]*QueryResult, len(specs))
	for i, spec := range specs {
		qid, err := dsSerial.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		serialResults[i], err = dsSerial.GetResults(qid)
		if err != nil {
			t.Fatal(err)
		}
	}

	dsBatch, _, specs2 := build()
	ids := make([]QueryID, len(specs2))
	for i, spec := range specs2 {
		var err error
		if ids[i], err = dsBatch.Query(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		res, err := dsBatch.GetResults(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.TopK) != len(serialResults[i].TopK) {
			t.Fatalf("query %d: batch returned %d entries, serial %d", i, len(res.TopK), len(serialResults[i].TopK))
		}
		for j := range res.TopK {
			if res.TopK[j] != serialResults[i].TopK[j] {
				t.Fatalf("query %d entry %d: batch %+v != serial %+v", i, j, res.TopK[j], serialResults[i].TopK[j])
			}
		}
		if res.Latency != serialResults[i].Latency {
			t.Errorf("query %d: batch latency %v != serial %v", i, res.Latency, serialResults[i].Latency)
		}
	}
	if a, b := dsBatch.Stats().SimTime, dsSerial.Stats().SimTime; a != b {
		t.Errorf("batch SimTime %v != serial %v", a, b)
	}
}
