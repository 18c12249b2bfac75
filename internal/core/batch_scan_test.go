package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/racetest"
	"repro/internal/topk"
	"repro/internal/workload"
)

// scanShape is one geometry the sweep can run under: how many features it
// gathers per GEMM batch and how many workers drain the channel shards.
// Results must not depend on it, so the equivalence matrices run every cell
// under each shape. The names say how a feature gets scored: in 64-row GEMM
// batches, one feature per scorer call, or by a single worker.
type scanShape struct {
	name       string
	scoreBatch int // Options.scoreBatch
	procs      int // GOMAXPROCS — the sweep's worker count — while the test runs; 0 leaves it
}

var scanShapes = []scanShape{
	{name: "batched"},
	{name: "per-feature", scoreBatch: 1},
	{name: "serial", procs: 1},
}

// on returns opts with the shape applied, pinning GOMAXPROCS for the rest of
// the test when the shape asks for it.
func (s scanShape) on(t *testing.T, opts Options) Options {
	opts.scoreBatch = s.scoreBatch
	if s.procs > 0 {
		prev := runtime.GOMAXPROCS(s.procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	return opts
}

// referenceTopK is the brute-force oracle the sweep is compared against:
// every feature of the key's range scored in ascending id, one scorer call
// each, into ONE queue. The queue's (score, featureID) total order makes that
// equal to merging per-channel queues, and exact pruning never changes a
// top-K, so this is the answer whatever the tier, batch or worker count. On a
// database with a quant table it scores in int8, as the sweep does.
func referenceTopK(ds *DeepStore, key scanKey, qfv []float32, k int) []topk.Entry {
	st := key.st
	scorer := key.net.Scorer()
	score := func(i int64) float32 { return scorer.Score(qfv, st.vectors[i]) }
	if qt := st.quant; qt != nil {
		qbs, qq := key.net.Quantize().BatchScorer(1), []nn.QuantQuery{nn.PrepareQuantQuery(qfv)}
		var s [1]float32
		score = func(i int64) float32 {
			qbs.ScoreMulti([][]float32{s[:]}, qq, []nn.QuantizedVector{qt.vecs[i]})
			return s[0]
		}
	}
	q := topk.New(k)
	for i := key.start; i < key.end; i++ {
		q.Offer(topk.Entry{
			FeatureID: i,
			Score:     score(i),
			ObjectID:  st.meta.Layout.ObjectID(i),
		})
	}
	return q.Results()
}

// sweepAnswers runs the sweep and stamps each top-K's ObjectIDs as runBatch
// does, so a sweep's output compares to an answer field for field.
func sweepAnswers(ds *DeepStore, key scanKey, qfvs [][]float32, ks []int, workers int) ([][]topk.Entry, []PruneStats) {
	tops, pss := ds.sweep(key, qfvs, ks, workers)
	for _, top := range tops {
		stampObjectIDs(key.st.meta.Layout, top)
	}
	return tops, pss
}

// sweepOne runs the sweep for a single query.
func sweepOne(ds *DeepStore, key scanKey, qfv []float32, k, workers int) ([]topk.Entry, PruneStats) {
	tops, pss := sweepAnswers(ds, key, [][]float32{qfv}, []int{k}, workers)
	return tops[0], pss[0]
}

// buildEngine writes a feature database for the named app and loads its SCN,
// returning everything the scan-level tests need.
func buildEngine(t *testing.T, opts Options, appName string, features int) (*DeepStore, *workload.FeatureDB, ModelID, ftl.DBID) {
	t.Helper()
	ds, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(1)
	db := workload.NewFeatureDB(app, features, 42)
	dbID, err := ds.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	return ds, db, model, dbID
}

// TestScoreRangeBatchedConvApp: the sweep matches the brute-force reference
// on a convolutional SCN (ReId: subtract front end, two padded conv layers
// through the im2col path) over unaligned sub-ranges.
func TestScoreRangeBatchedConvApp(t *testing.T) {
	if testing.Short() {
		t.Skip("ReId forward passes are slow")
	}
	ds, _, model, dbID := buildEngine(t, DefaultOptions(), "ReId", 150)
	st := ds.dbs[dbID]
	q := st.vectors[9]
	for _, c := range []struct {
		name       string
		start, end int64
	}{
		{"full", 0, 150},
		{"mid-stripe", 3, 141},
	} {
		t.Run(c.name, func(t *testing.T) {
			key := scanKey{st: st, net: ds.models[model], start: c.start, end: c.end}
			got, _ := sweepOne(ds, key, q, 10, runtime.GOMAXPROCS(0))
			assertSameTopK(t, "sweep vs reference", got, referenceTopK(ds, key, q, 10))
		})
	}
}

// TestSweepInvariantAcrossShapes: nothing observable depends on how the sweep
// is shaped. For every precision/tier combination, each member of a Q-wide
// QueryMulti — at every worker count and gather batch — equals its own
// single-query run on the default shape in top-K, prune accounting, features
// scanned, latency, energy and stage durations.
func TestSweepInvariantAcrossShapes(t *testing.T) {
	const features = 131
	net := pruneTestNet()
	vectors := clusteredVectors(features, 9)
	for _, c := range []struct {
		name         string
		prune, quant bool
		margin       int
	}{
		{"dense", false, false, 0},
		{"prune", true, false, 0},
		{"int8", false, true, 0},
		{"int8+rerank", false, true, quantTestMargin},
		{"prune+int8+rerank", true, true, quantTestMargin},
	} {
		opts := pruneTestOpts(c.prune)
		opts.Quantized, opts.RerankMargin = c.quant, c.margin
		alone, model, db := buildPruneEngine(t, opts, net, vectors)
		specs := make([]QuerySpec, 64)
		want := make([]*QueryResult, len(specs))
		var skipped int64
		for i := range specs {
			specs[i] = QuerySpec{QFV: vectors[(i*13)%features], K: 1 + (i+2)%5, Model: model, DB: db, DBStart: 3}
			want[i] = runQuery(t, alone, specs[i])
			skipped += want[i].Prune.FeaturesSkipped
		}
		if c.prune && skipped == 0 {
			t.Fatalf("%s: the single-query runs never skipped a feature", c.name)
		}
		for _, w := range []struct {
			name  string
			procs int
		}{{"1", 1}, {"N", 0}} {
			for _, batch := range []int{1, 7, 64} {
				t.Run(fmt.Sprintf("%s/workers=%s/B=%d", c.name, w.name, batch), func(t *testing.T) {
					shape := scanShape{scoreBatch: batch, procs: w.procs}
					for _, nq := range []int{1, 7, 64} {
						if racetest.Enabled && nq > 7 {
							continue // q64 cells are too slow under the race detector
						}
						ds, _, _ := buildPruneEngine(t, shape.on(t, opts), net, vectors)
						ids, err := ds.QueryMulti(specs[:nq])
						if err != nil {
							t.Fatal(err)
						}
						for i, id := range ids {
							got, err := ds.GetResults(id)
							if err != nil {
								t.Fatal(err)
							}
							compareResults(t, i, want[i], got, true)
						}
					}
				})
			}
		}
	}
}

// TestRerankBatchedMatchesScalar: the pooled batched rerank scores cached
// entries exactly as a per-feature Scorer walk would. Cached feature IDs are
// always ones the database holds: PrefetchHistory refuses others where they
// enter (TestPrefetchRefusesForeignFeatureIDs).
func TestRerankBatchedMatchesScalar(t *testing.T) {
	ds, _, model, dbID := buildEngine(t, DefaultOptions(), "TextQA", 300)
	st := ds.dbs[dbID]
	net := ds.models[model]
	qfv := st.vectors[5]
	cached := referenceTopK(ds, scanKey{st: st, net: net, end: 300}, st.vectors[7], 40)

	want := topk.New(10)
	scorer := net.Scorer()
	for _, e := range cached {
		want.Offer(topk.Entry{
			FeatureID: e.FeatureID,
			Score:     scorer.Score(qfv, st.vectors[e.FeatureID]),
			ObjectID:  e.ObjectID,
		})
	}
	wantRes := want.Results()
	got := ds.rerank(net, st, qfv, cached, 10)
	stampObjectIDs(st.meta.Layout, got)
	if len(got) != len(wantRes) {
		t.Fatalf("rerank returned %d entries, want %d", len(got), len(wantRes))
	}
	for i := range wantRes {
		if wantRes[i] != got[i] {
			t.Fatalf("entry %d differs: %+v != %+v", i, got[i], wantRes[i])
		}
	}
}

// TestScoreRangeBatchedAllocSteady: once the batchCtx pool is warm, the
// sweep's allocations are per-shard bookkeeping (queues, goroutines) — they
// must not grow with the number of features scored.
func TestScoreRangeBatchedAllocSteady(t *testing.T) {
	ds, _, model, dbID := buildEngine(t, DefaultOptions(), "TextQA", 2000)
	st := ds.dbs[dbID]
	key := scanKey{st: st, net: ds.models[model]}
	q := st.vectors[17]
	scan := func(end int64) {
		key.end = end
		sweepOne(ds, key, q, 10, runtime.GOMAXPROCS(0))
	}
	scan(2000) // warm the pool
	small := testing.AllocsPerRun(5, func() { scan(200) })
	large := testing.AllocsPerRun(5, func() { scan(2000) })
	// 1800 extra features → ~29 extra GEMM batches; allow a little noise
	// from the scheduler but nothing proportional to the feature count.
	if large-small > 8 {
		t.Errorf("allocs grew with range: %v for 200 features vs %v for 2000", small, large)
	}
}

// TestDenseWalkGroupsChannels: a dense sweep whose range has fewer features
// per channel than the gather batch claims runs of channels and gathers
// across them, and still gives every query the per-channel walk's top-K (a
// gather batch of one, which claims one channel at a time) and the
// brute-force reference's, FeatureID, Score and ObjectID bit for bit. The
// ranges start and end mid-stripe, the widths span one feature per channel
// to two batches' worth, and each runs on one worker and on one per run.
// core_scan_batches counts the GEMM batches: the grouped walk fills each
// batch up to its run's rows, the per-channel walk issues one per feature.
func TestDenseWalkGroupsChannels(t *testing.T) {
	const channels = 16
	cfg := pruneTestConfig()
	cfg.Geometry.Channels = channels
	opts := DefaultOptions()
	opts.Device = cfg
	net := pruneTestNet()
	for _, perChannel := range []int64{1, 3, 8, 63, 64, 65, 130} {
		vectors := clusteredVectors(int(perChannel+1)*channels, 11)
		start, end := int64(5), 5+perChannel*channels-3
		if perChannel == 1 {
			end = 5 + channels - 3
		}
		grouped, model, db := buildPruneEngine(t, opts, net, vectors)
		perFeature := opts
		perFeature.scoreBatch = 1
		single, _, _ := buildPruneEngine(t, perFeature, net, vectors)
		key := func(ds *DeepStore) scanKey {
			return scanKey{st: ds.dbs[db], net: ds.models[model], start: start, end: end}
		}
		for _, nq := range []int{1, 2, 7, 64} {
			if racetest.Enabled && nq > 7 {
				continue
			}
			qfvs := make([][]float32, nq)
			ks := make([]int, nq)
			for q := range qfvs {
				qfvs[q], ks[q] = vectors[(q*29+3)%len(vectors)], 1+q%5
			}
			var wants [][]topk.Entry
			for q := range qfvs {
				wants = append(wants, referenceTopK(grouped, key(grouped), qfvs[q], ks[q]))
			}
			// Per-channel walk: a batch of one, so one batch per feature.
			before := single.obs.Counter("core_scan_batches").Value()
			perChannelTops, _ := sweepAnswers(single, key(single), qfvs, ks, channels)
			if got := single.obs.Counter("core_scan_batches").Value() - before; got != end-start {
				t.Errorf("perChannel=%d q=%d: the per-feature walk issued %d batches for %d features", perChannel, nq, got, end-start)
			}
			group := max(1, DefaultScoreBatch/int((end-start+channels-1)/channels))
			for _, workers := range []int{1, (channels + group - 1) / group} {
				name := fmt.Sprintf("perChannel=%d/q=%d/workers=%d", perChannel, nq, workers)
				before := grouped.obs.Counter("core_scan_batches").Value()
				tops, _ := sweepAnswers(grouped, key(grouped), qfvs, ks, workers)
				if got, want := grouped.obs.Counter("core_scan_batches").Value()-before, groupedBatches(start, end, channels, group); got != want {
					t.Errorf("%s: %d batches, want %d", name, got, want)
				}
				for q := range qfvs {
					sameEntryBits(t, name+" vs per-channel", tops[q], perChannelTops[q])
					sameEntryBits(t, name+" vs reference", tops[q], wants[q])
				}
			}
		}
	}
}

// groupedBatches is the number of GEMM batches a dense sweep of [start, end)
// issues over runs of group channels: each run's rows, DefaultScoreBatch at a
// time.
func groupedBatches(start, end int64, channels, group int) int64 {
	rows := make([]int64, (channels+group-1)/group)
	for i := start; i < end; i++ {
		rows[int(i%int64(channels))/group]++
	}
	var batches int64
	for _, r := range rows {
		batches += (r + DefaultScoreBatch - 1) / DefaultScoreBatch
	}
	return batches
}

// sameEntryBits fails unless got and want hold the same entries, scores
// compared by their bits.
func sameEntryBits(t *testing.T, label string, got, want []topk.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.FeatureID != w.FeatureID || g.ObjectID != w.ObjectID || math.Float32bits(g.Score) != math.Float32bits(w.Score) {
			t.Fatalf("%s: entry %d differs: %+v != %+v", label, i, g, w)
		}
	}
}

// TestSweepObjectIDs: every answer carries its features' ObjectIDs under the
// database's current layout, DBLayout.ObjectID(FeatureID), whatever produced
// it — a miss's sweep, a hit's rerank, a shared sweep, a hit on a batch-mate
// not yet swept, the two-pass int8 rerank — on pages holding three or 128
// features and with features spanning two pages, over ranges that start and
// end mid-page. After CompactFlash moves the database the cache keeps its
// entries and a hit names the new pages; after the cache is reconfigured,
// PrefetchHistory re-warms it from payloads recorded before the move, and
// their hit names the new pages too. The queries are 2·e_j: the QCN scores a
// repeat sigmoid(16) and any other pair 0.5, so exactly the repeats hit.
func TestSweepObjectIDs(t *testing.T) {
	const channels = 16
	net := pruneTestNet()
	vectors := clusteredVectors(channels*40+7, 5)
	n := int64(len(vectors))
	qs := make([][]float32, pruneTestDims)
	for j := range qs {
		qs[j] = make([]float32, pruneTestDims)
		qs[j][j] = 2
	}
	for _, pageBytes := range []int64{20, 96, 4 << 10} {
		for _, c := range []struct {
			name         string
			prune, quant bool
		}{{"dense", false, false}, {"prune", true, false}, {"int8+rerank", false, true}} {
			name := fmt.Sprintf("page %d B/%s", pageBytes, c.name)
			opts := pruneTestOpts(c.prune)
			opts.Device.Geometry.Channels = channels
			opts.Device.Geometry.PageBytes = pageBytes
			opts.History = true
			if c.quant {
				opts.Quantized, opts.RerankMargin = true, quantTestMargin
			}
			ds, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			hole, err := ds.WriteDB(clusteredVectors(int(n), 6))
			if err != nil {
				t.Fatal(err)
			}
			db, err := ds.WriteDB(vectors)
			if err != nil {
				t.Fatal(err)
			}
			model, err := ds.LoadModelNetwork(net)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ds.dbs[db].meta.Layout.FeaturesPerPage(), map[int64]int{20: 0, 96: 3, 4 << 10: 128}[pageBytes]; got != want {
				t.Fatalf("%s: %d features per page, want %d", name, got, want)
			}
			if err := ds.SetQC(pruneTestQCN(), 1, 64, 0.2); err != nil {
				t.Fatal(err)
			}
			// check holds every answer to the current layout and its hit
			// flag to want; it returns how many entries name a page other
			// than the one they had under old.
			check := func(label string, ids []QueryID, wantHits []bool, old ftl.DBLayout) int {
				t.Helper()
				layout, moved := ds.dbs[db].meta.Layout, 0
				for i, id := range ids {
					r, err := ds.GetResults(id)
					if err != nil {
						t.Fatal(err)
					}
					if r.CacheHit != wantHits[i] || len(r.TopK) == 0 {
						t.Fatalf("%s: %s: answer %d hit %v with %d entries, want hit %v", name, label, i, r.CacheHit, len(r.TopK), wantHits[i])
					}
					for _, e := range r.TopK {
						if want := layout.ObjectID(e.FeatureID); e.ObjectID != want {
							t.Fatalf("%s: %s: answer %d: feature %d has ObjectID %d, want %d", name, label, i, e.FeatureID, e.ObjectID, want)
						}
						if e.ObjectID != old.ObjectID(e.FeatureID) {
							moved++
						}
					}
				}
				return moved
			}
			query := func(specs ...QuerySpec) []QueryID {
				t.Helper()
				ids, err := ds.QueryMulti(specs)
				if err != nil {
					t.Fatal(err)
				}
				return ids
			}
			spec := func(q []float32, r [2]int64) QuerySpec {
				return QuerySpec{QFV: q, K: 5, Model: model, DB: db, DBStart: r[0], DBEnd: r[1]}
			}
			before := ds.dbs[db].meta.Layout
			// The whole database last, so q0's newest record is unranged.
			ranges := [][2]int64{{5, n - 3}, {17, 301}, {0, 0}}
			for _, r := range ranges {
				check(fmt.Sprintf("[%d, %d) miss, hit", r[0], r[1]), append(query(spec(qs[0], r)), query(spec(qs[0], r))...), []bool{false, true}, before)
				// One shared sweep for three misses; the repeat hits its
				// batch-mate's entry before the sweep has filled it.
				check(fmt.Sprintf("[%d, %d) shared", r[0], r[1]), query(spec(qs[1], r), spec(qs[2], r), spec(qs[3], r), spec(qs[1], r)),
					[]bool{false, false, false, true}, before)
			}
			if err := ds.DeleteDB(hole); err != nil {
				t.Fatal(err)
			}
			if ds.CompactFlash() == 0 {
				t.Fatalf("%s: compaction moved nothing", name)
			}
			whole := spec(qs[0], [2]int64{})
			if check("hit after the move", query(whole), []bool{true}, before) == 0 {
				t.Fatalf("%s: no answer entry changed page in the move", name)
			}
			if err := ds.SetQC(pruneTestQCN(), 1, 64, 0.2); err != nil {
				t.Fatal(err)
			}
			if got, err := ds.PrefetchHistory(len(qs)); err != nil || got == 0 {
				t.Fatalf("%s: prefetched %d entries (%v)", name, got, err)
			}
			if check("hit on a prefetched entry", query(whole), []bool{true}, before) == 0 {
				t.Fatalf("%s: no prefetched entry changed page in the move", name)
			}
		}
	}
}
