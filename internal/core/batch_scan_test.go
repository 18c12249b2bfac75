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
	layout := st.meta.Layout
	scorer := key.net.Scorer()
	score := func(i int64) float32 { return scorer.Score(qfv, st.vectors[i]) }
	if qt := ds.quantFor(st); qt != nil {
		qsc, qq := key.net.Quantize().Scorer(), nn.PrepareQuantQuery(qfv)
		score = func(i int64) float32 { return qsc.Score(qq, qt.vecs[i]) }
	}
	q := topk.New(k)
	for i := key.start; i < key.end; i++ {
		q.Offer(topk.Entry{
			FeatureID: i,
			Score:     score(i),
			ObjectID:  uint64(layout.Geom.Linear(layout.FeatureAddr(i))),
		})
	}
	return q.Results()
}

// sweepOne runs the sweep for a single query.
func sweepOne(ds *DeepStore, key scanKey, qfv []float32, k, workers int) ([]topk.Entry, PruneStats) {
	tops, pss := ds.sweep(key, [][]float32{qfv}, []int{k}, workers)
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
// entries exactly as a per-feature Scorer walk would, including entries
// whose feature IDs fall outside the database (dropped, not scored).
func TestRerankBatchedMatchesScalar(t *testing.T) {
	ds, _, model, dbID := buildEngine(t, DefaultOptions(), "TextQA", 300)
	st := ds.dbs[dbID]
	net := ds.models[model]
	qfv := st.vectors[5]
	cached := referenceTopK(ds, scanKey{st: st, net: net, end: 300}, st.vectors[7], 40)
	cached = append(cached, topk.Entry{FeatureID: -1}, topk.Entry{FeatureID: 300})

	want := topk.New(10)
	scorer := net.Scorer()
	for _, e := range cached {
		if e.FeatureID < 0 || e.FeatureID >= int64(len(st.vectors)) {
			continue
		}
		want.Offer(topk.Entry{
			FeatureID: e.FeatureID,
			Score:     scorer.Score(qfv, st.vectors[e.FeatureID]),
			ObjectID:  e.ObjectID,
		})
	}
	wantRes := want.Results()
	got := ds.rerank(net, st, qfv, cached, 10)
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
			perChannelTops, _ := single.sweep(key(single), qfvs, ks, channels)
			if got := single.obs.Counter("core_scan_batches").Value() - before; got != end-start {
				t.Errorf("perChannel=%d q=%d: the per-feature walk issued %d batches for %d features", perChannel, nq, got, end-start)
			}
			group := max(1, DefaultScoreBatch/int((end-start+channels-1)/channels))
			for _, workers := range []int{1, (channels + group - 1) / group} {
				name := fmt.Sprintf("perChannel=%d/q=%d/workers=%d", perChannel, nq, workers)
				before := grouped.obs.Counter("core_scan_batches").Value()
				tops, _ := grouped.sweep(key(grouped), qfvs, ks, workers)
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

// TestSweepObjectIDs: every entry a sweep returns carries its feature's
// object id, Geom.Linear(FeatureAddr(FeatureID)), though the walk looks one
// up per flash page — on pages holding three or 128 features and with
// features spanning two pages, over ranges that start and end mid-page,
// with grouped channel runs (a channel's walk may end mid-page and the next
// channel's start there) and under a bound tier whose skipped segments
// jump the walk past pages. A top-K as wide as the range returns every
// feature of it.
func TestSweepObjectIDs(t *testing.T) {
	const channels = 16
	net := pruneTestNet()
	vectors := clusteredVectors(channels*40+7, 5)
	n := int64(len(vectors))
	for _, pageBytes := range []int64{20, 96, 4 << 10} {
		for _, prune := range []bool{false, true} {
			opts := pruneTestOpts(prune)
			opts.Device.Geometry.Channels = channels
			opts.Device.Geometry.PageBytes = pageBytes
			ds, model, db := buildPruneEngine(t, opts, net, vectors)
			layout := ds.dbs[db].meta.Layout
			if got, want := layout.FeaturesPerPage(), map[int64]int{20: 0, 96: 3, 4 << 10: 128}[pageBytes]; got != want {
				t.Fatalf("page %d B: %d features per page, want %d", pageBytes, got, want)
			}
			skipped := int64(0)
			for _, r := range [][2]int64{{0, n}, {5, n - 3}, {17, 301}, {40, 41}} {
				key := scanKey{st: ds.dbs[db], net: ds.models[model], start: r[0], end: r[1]}
				qfvs := make([][]float32, 32)
				ks := make([]int, len(qfvs))
				for q := range qfvs {
					qfvs[q], ks[q] = vectors[(q*97+11)%len(vectors)], 1+q%12
				}
				ks[0] = int(r[1] - r[0])
				if top, _ := sweepOne(ds, key, qfvs[0], ks[0], 1); len(top) != ks[0] {
					t.Fatalf("[%d, %d): %d entries for a top-%d over the range", r[0], r[1], len(top), ks[0])
				}
				// All queries in one sweep, and each alone: a segment is
				// jumped only when every query of the sweep skips it.
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("page %d B/prune %v/[%d, %d)/workers %d", pageBytes, prune, r[0], r[1], workers)
					check := func(q0, q1 int) {
						tops, stats := ds.sweep(key, qfvs[q0:q1], ks[q0:q1], workers)
						for q, top := range tops {
							skipped += stats[q].FeaturesSkipped
							for _, e := range top {
								if want := uint64(layout.Geom.Linear(layout.FeatureAddr(e.FeatureID))); e.ObjectID != want {
									t.Fatalf("%s: query %d: feature %d has object id %d, want %d", name, q0+q, e.FeatureID, e.ObjectID, want)
								}
							}
						}
					}
					check(0, len(qfvs))
					for q := range qfvs {
						check(q, q+1)
					}
				}
			}
			if prune && skipped == 0 {
				t.Errorf("page %d B: the bound tier skipped nothing, so no segment jump was walked", pageBytes)
			}
		}
	}
}
