package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// eqNet builds the small SCN the equivalence suite scans with —
// deterministic weights, so two engines constructed the same way score
// identically.
func eqNet() *nn.Network {
	n := nn.MustNetwork("eq-scn", tensor.Shape{16}, nn.CombineHadamard,
		nn.NewFC("fc1", 16, 16, nn.ActReLU),
		nn.NewFC("fc2", 16, 1, nn.ActSigmoid))
	n.InitRandom(7)
	return n
}

func eqVectors(n int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([][]float32, n)
	for i := range vs {
		v := make([]float32, 16)
		for j := range v {
			v[j] = rng.Float32()*2 - 1
		}
		vs[i] = v
	}
	return vs
}

// eqQueries builds Q query vectors with deliberate exact repeats (every
// third query re-issues an earlier one) so the query-cache cases exercise
// hits — including hits on entries inserted by the same multi batch.
func eqQueries(q int, seed int64) [][]float32 {
	qfvs := eqVectors(q, seed)
	for i := 3; i < q; i += 3 {
		qfvs[i] = qfvs[i-3]
	}
	return qfvs
}

// newEqEngine builds one engine with the suite's database and model; two
// calls with the same arguments produce bit-identical engines.
func newEqEngine(t *testing.T, opts Options, features int, useQC bool) (*DeepStore, ModelID, ftl.DBID) {
	t.Helper()
	ds, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	dbID, err := ds.WriteDB(eqVectors(features, 101))
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(eqNet())
	if err != nil {
		t.Fatal(err)
	}
	if useQC {
		// Perfect QCN: identical queries clear the threshold, unrelated
		// ones do not (see perfectQCN); capacity 8 forces LRU evictions at
		// larger Q.
		if err := ds.SetQC(perfectQCN(16), 1.0, 8, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	return ds, model, dbID
}

// TestQueryMultiEquivalence is the lockdown suite for the shared
// multi-query sweep: for every sweep shape, with the query cache on and off,
// with and without flash read faults, and across batch widths (including
// widths beyond the cache capacity) and odd database sizes, QueryMulti's
// results are compared against the sequential oracle — the same specs
// submitted one Query/GetResults pair at a time on an identically
// constructed engine.
//
// Without faults every observable is bit-identical: top-K entries, cache
// hits, features scanned, latency, energy, and the stage sum. With faults
// the per-query latencies legitimately diverge (the shared sweep issues one
// fault-drawing scan where the oracle issues Q), so the suite checks
// functional identity plus the stage-sum invariant on both paths.
func TestQueryMultiEquivalence(t *testing.T) {
	sizes := []int{7, 33, 101} // all odd, straddling the 32-channel stripe width
	for _, shape := range scanShapes {
		for _, useQC := range []bool{false, true} {
			for _, faults := range []bool{false, true} {
				for qi, q := range []int{1, 2, 7, 64} {
					features := sizes[qi%len(sizes)]
					name := fmt.Sprintf("%s/qc=%v/faults=%v/Q=%d/db=%d", shape.name, useQC, faults, q, features)
					t.Run(name, func(t *testing.T) {
						opts := shape.on(t, DefaultOptions())
						if faults {
							opts.Device.FlashFaults.ReadErrorRate = 0.02
							opts.Device.FlashFaults.Seed = 99
						}
						specs := make([]QuerySpec, q)
						qfvs := eqQueries(q, int64(1000+q))

						oracle, model, db := newEqEngine(t, opts, features, useQC)
						for i := range specs {
							specs[i] = QuerySpec{QFV: qfvs[i], K: 5, Model: model, DB: db}
						}
						want := make([]*QueryResult, q)
						for i, spec := range specs {
							id, err := oracle.Query(spec)
							if err != nil {
								t.Fatal(err)
							}
							if want[i], err = oracle.GetResults(id); err != nil {
								t.Fatal(err)
							}
						}

						shared, model2, db2 := newEqEngine(t, opts, features, useQC)
						if model2 != model || db2 != db {
							t.Fatalf("engines constructed differently: model %d/%d db %d/%d", model, model2, db, db2)
						}
						ids, err := shared.QueryMulti(specs)
						if err != nil {
							t.Fatal(err)
						}
						if len(ids) != q {
							t.Fatalf("QueryMulti returned %d ids for %d specs", len(ids), q)
						}
						for i, id := range ids {
							got, err := shared.GetResults(id)
							if err != nil {
								t.Fatal(err)
							}
							compareResults(t, i, want[i], got, !faults)
						}

						if useQC {
							oh, om := cacheCounts(oracle)
							sh, sm := cacheCounts(shared)
							if oh != sh || om != sm {
								t.Fatalf("cache stats diverge: oracle %d/%d, shared %d/%d", oh, om, sh, sm)
							}
							if q >= 7 && oh == 0 {
								t.Fatalf("suite expected cache hits at Q=%d, got none", q)
							}
						}
					})
				}
			}
		}
	}
}

// TestDoMatchesQueryMulti: Do is QueryMulti followed by one GetResults per
// id, in one critical section. On twin engines, one driven by Do and one by
// QueryMulti + GetResults, every result is bit-identical — top-K with
// ObjectIDs, cache hit, latency, energy, stages, prune stats and query id —
// and so are the engine clocks, stats and metrics, for Q ∈ {1, 2, 7, 64}, the
// cache on and off, and dense and prune + two-pass int8 engines. Do's results
// never enter the result table.
func TestDoMatchesQueryMulti(t *testing.T) {
	configs := []struct {
		name    string
		build   func(t *testing.T, useQC bool) (*DeepStore, ModelID, ftl.DBID)
		queries func(q int) [][]float32
	}{
		{
			name: "dense",
			build: func(t *testing.T, useQC bool) (*DeepStore, ModelID, ftl.DBID) {
				return newEqEngine(t, DefaultOptions(), 101, useQC)
			},
			queries: func(q int) [][]float32 { return eqQueries(q, int64(2000+q)) },
		},
		{
			name: "prune+int8",
			build: func(t *testing.T, useQC bool) (*DeepStore, ModelID, ftl.DBID) {
				opts := quantTestOpts(quantTestMargin)
				opts.Prune = true
				ds, model, db := buildPruneEngine(t, opts, pruneTestNet(), clusteredVectors(131, 17))
				if useQC {
					if err := ds.SetQC(pruneTestQCN(), 1.0, 8, 0.2); err != nil {
						t.Fatal(err)
					}
				}
				return ds, model, db
			},
			queries: func(q int) [][]float32 {
				qfvs := clusteredVectors(q, int64(3000+q))
				for i := 3; i < q; i += 3 {
					qfvs[i] = qfvs[i-3]
				}
				return qfvs
			},
		},
	}
	for _, c := range configs {
		for _, useQC := range []bool{false, true} {
			for _, q := range []int{1, 2, 7, 64} {
				t.Run(fmt.Sprintf("%s/qc=%v/Q=%d", c.name, useQC, q), func(t *testing.T) {
					do, model, db := c.build(t, useQC)
					multi, _, _ := c.build(t, useQC)
					specs := make([]QuerySpec, q)
					for i, qfv := range c.queries(q) {
						specs[i] = QuerySpec{QFV: qfv, K: 4, Model: model, DB: db}
					}
					got, err := do.Do(specs)
					if err != nil {
						t.Fatal(err)
					}
					want := queryMultiResults(t, multi, specs)
					var hits, checked int64
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("query %d: Do %+v, QueryMulti+GetResults %+v", i, got[i], want[i])
						}
						if want[i].CacheHit {
							hits++
						}
						checked += want[i].Prune.StripesChecked
					}
					if useQC && q >= 7 && hits == 0 {
						t.Fatal("no query hit the cache")
					}
					if c.name == "prune+int8" && (checked == 0 || !hasStage(want[0], obs.StageRerankExact)) {
						t.Fatalf("prune+int8 checked %d stripes, first stages %v", checked, want[0].Stages)
					}
					sameEngineState(t, do, multi)
					if n := len(do.queries); n != 0 {
						t.Fatalf("Do left %d results in the result table", n)
					}
				})
			}
		}
	}

	// One refused spec among four: it returns its Err, and the other three
	// run as one shared sweep, exactly as QueryMulti runs them alone.
	do, model, db := newEqEngine(t, DefaultOptions(), 101, false)
	multi, _, _ := newEqEngine(t, DefaultOptions(), 101, false)
	specs := make([]QuerySpec, 4)
	for i, qfv := range eqVectors(4, 77) {
		specs[i] = QuerySpec{QFV: qfv, K: 4, Model: model, DB: db}
	}
	specs[2].K = 0
	got, err := do.Do(specs)
	if err != nil {
		t.Fatal(err)
	}
	if r := got[2]; r.Err == nil || r.TopK != nil || r.Latency != 0 {
		t.Fatalf("refused spec returned %+v, want only an error", r)
	}
	want := queryMultiResults(t, multi, []QuerySpec{specs[0], specs[1], specs[3]})
	for i, w := range want {
		if g := got[[]int{0, 1, 3}[i]]; !reflect.DeepEqual(g, w) {
			t.Fatalf("good spec %d: Do %+v, QueryMulti+GetResults %+v", i, g, w)
		}
	}
	sameEngineState(t, do, multi)
	if c := do.MetricsSnapshot().Counters; c["core_shared_scans"] != 1 || c["core_shared_scan_queries"] != 3 {
		t.Fatalf("core_shared_scans = %d over %d queries, want 1 over 3", c["core_shared_scans"], c["core_shared_scan_queries"])
	}
}

// queryMultiResults runs specs through QueryMulti and fetches every result.
func queryMultiResults(t *testing.T, ds *DeepStore, specs []QuerySpec) []*QueryResult {
	t.Helper()
	ids, err := ds.QueryMulti(specs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*QueryResult, len(ids))
	for i, id := range ids {
		if out[i], err = ds.GetResults(id); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameEngineState fails unless two engines agree on the clock, the stats and
// every counter, gauge and histogram of their metrics.
func sameEngineState(t *testing.T, a, b *DeepStore) {
	t.Helper()
	if a.Now() != b.Now() || a.Stats() != b.Stats() {
		t.Fatalf("engines diverge: clock %v vs %v, stats %+v vs %+v", a.Now(), b.Now(), a.Stats(), b.Stats())
	}
	if sa, sb := a.MetricsSnapshot(), b.MetricsSnapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("metrics diverge:\n%+v\n%+v", sa, sb)
	}
}

// compareResults checks one query's shared-sweep result against the
// sequential oracle's. Timing/energy comparison is skipped when fault
// injection makes the two scan streams draw different fault sequences.
func compareResults(t *testing.T, i int, want, got *QueryResult, exactTiming bool) {
	t.Helper()
	if len(got.TopK) != len(want.TopK) {
		t.Fatalf("query %d: topK has %d entries, want %d", i, len(got.TopK), len(want.TopK))
	}
	for j := range want.TopK {
		if got.TopK[j] != want.TopK[j] {
			t.Fatalf("query %d entry %d: %+v != %+v", i, j, got.TopK[j], want.TopK[j])
		}
	}
	if got.CacheHit != want.CacheHit {
		t.Fatalf("query %d: cacheHit %v, want %v", i, got.CacheHit, want.CacheHit)
	}
	if got.FeaturesScanned != want.FeaturesScanned {
		t.Fatalf("query %d: scanned %d, want %d", i, got.FeaturesScanned, want.FeaturesScanned)
	}
	if got.Prune != want.Prune {
		t.Fatalf("query %d: prune stats %+v, want %+v", i, got.Prune, want.Prune)
	}
	if sum := obs.SumStages(got.Stages); sum != got.Latency {
		t.Fatalf("query %d: stage sum %v != latency %v (stages %v)", i, sum, got.Latency, got.Stages)
	}
	if sum := obs.SumStages(want.Stages); sum != want.Latency {
		t.Fatalf("query %d (oracle): stage sum %v != latency %v", i, sum, want.Latency)
	}
	if !exactTiming {
		return
	}
	if got.Latency != want.Latency {
		t.Fatalf("query %d: latency %v, want %v", i, got.Latency, want.Latency)
	}
	if got.Energy != want.Energy {
		t.Fatalf("query %d: energy %+v, want %+v", i, got.Energy, want.Energy)
	}
	if len(got.Stages) != len(want.Stages) {
		t.Fatalf("query %d: %d stages, want %d", i, len(got.Stages), len(want.Stages))
	}
	for j := range want.Stages {
		wantName := want.Stages[j].Name
		if wantName == obs.StageScan {
			wantName = obs.StageSharedScan // the one intentional rename
		}
		if got.Stages[j].Name != wantName || got.Stages[j].Dur != want.Stages[j].Dur {
			t.Fatalf("query %d stage %d: %+v, want {%s %v}", i, j, got.Stages[j], wantName, want.Stages[j].Dur)
		}
	}
}

// TestQueryMultiSubRangesAndLevels: queries over different sub-ranges (and
// an explicit accelerator level) land in separate scan groups yet still
// match the oracle — grouping must key on the full (model, range, level)
// identity.
func TestQueryMultiSubRangesAndLevels(t *testing.T) {
	opts := DefaultOptions()
	oracle, model, db := newEqEngine(t, opts, 101, false)
	shared, _, _ := newEqEngine(t, opts, 101, false)
	qfvs := eqQueries(6, 555)
	lv := oracle.opts.DefaultLevel
	specs := []QuerySpec{
		{QFV: qfvs[0], K: 3, Model: model, DB: db},
		{QFV: qfvs[1], K: 3, Model: model, DB: db, DBStart: 10, DBEnd: 55},
		{QFV: qfvs[2], K: 3, Model: model, DB: db, DBStart: 10, DBEnd: 55},
		{QFV: qfvs[3], K: 7, Model: model, DB: db, DBStart: 3, DBEnd: 4},
		{QFV: qfvs[4], K: 3, Model: model, DB: db, Level: &lv},
		{QFV: qfvs[5], K: 3, Model: model, DB: db},
	}
	want := make([]*QueryResult, len(specs))
	for i, spec := range specs {
		id, err := oracle.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = oracle.GetResults(id); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := shared.QueryMulti(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got, err := shared.GetResults(id)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, i, want[i], got, true)
	}
	// Three distinct groups: [0,101) (with the explicit-default level and
	// the trailing spec folded in), [10,55), [3,4).
	snap := shared.MetricsSnapshot()
	if n := snap.Counters["core_shared_scans"]; n != 3 {
		t.Fatalf("core_shared_scans = %d, want 3", n)
	}
}

// TestQueryMultiValidation: an invalid spec anywhere in the batch fails the
// whole batch before any state changes (all-or-nothing admission).
func TestQueryMultiValidation(t *testing.T) {
	ds, model, db := newEqEngine(t, DefaultOptions(), 33, false)
	good := QuerySpec{QFV: eqVectors(1, 5)[0], K: 3, Model: model, DB: db}
	bad := good
	bad.K = 0
	if _, err := ds.QueryMulti([]QuerySpec{good, bad}); err == nil {
		t.Fatal("expected error for invalid spec in batch")
	}
	if _, err := ds.QueryMulti(nil); err == nil {
		t.Fatal("expected error for empty batch")
	}
	if st := ds.Stats(); st.Queries != 0 {
		t.Fatalf("failed batch executed %d queries", st.Queries)
	}
	ids, err := ds.QueryMulti([]QuerySpec{good})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("got %d ids", len(ids))
	}
}

// TestQueryRejectsUnknownLevel: QuerySpec.Level arrives unchecked from the
// wire protocol, so a level that names no accelerator placement must be an
// error from validation — not a panic after the sweep already ran.
func TestQueryRejectsUnknownLevel(t *testing.T) {
	ds, model, db := newEqEngine(t, DefaultOptions(), 33, false)
	bogus := accel.Level(98)
	spec := QuerySpec{QFV: eqVectors(1, 5)[0], K: 3, Model: model, DB: db, Level: &bogus}
	if _, err := ds.Query(spec); err == nil {
		t.Fatal("Query accepted accelerator level 98")
	}
	if _, err := ds.QueryMulti([]QuerySpec{spec}); err == nil {
		t.Fatal("QueryMulti accepted accelerator level 98")
	}
}

// TestRefusedQueryChangesNothing: a query the scan will refuse (a
// convolutional model at chip level) is refused by validation, before any
// cache, clock, stats or history mutation — in particular it leaves no
// zero-filled pending entry behind in the query cache.
func TestRefusedQueryChangesNothing(t *testing.T) {
	opts := DefaultOptions()
	opts.History = true
	ds, db, model, dbID := buildEngine(t, opts, "ReId", 8)
	if err := ds.SetQC(perfectQCN(len(db.Vectors[0])), 1.0, 16, 0.2); err != nil {
		t.Fatal(err)
	}
	type state struct {
		cacheLen     int
		hits, misses int64
		stats        Stats
		now          sim.Time
		history      uint64
	}
	snapshot := func() state {
		s := state{cacheLen: ds.qc.Len(), stats: ds.Stats(), now: ds.Now(), history: ds.HistoryStats().Records}
		s.hits, s.misses = cacheCounts(ds)
		return s
	}
	before := snapshot()
	chip := accel.LevelChip
	ok := QuerySpec{QFV: db.Vectors[0], K: 3, Model: model, DB: dbID}
	refused := ok
	refused.Level = &chip
	var unsupported *accel.ErrUnsupported
	if _, err := ds.Query(refused); !errors.As(err, &unsupported) {
		t.Fatalf("Query at chip level: %v, want accel.ErrUnsupported", err)
	}
	if got := snapshot(); got != before {
		t.Fatalf("refused Query changed the engine:\n got %+v\nwant %+v", got, before)
	}
	if _, err := ds.QueryMulti([]QuerySpec{ok, refused}); !errors.As(err, &unsupported) {
		t.Fatalf("QueryMulti with a chip-level member: %v, want accel.ErrUnsupported", err)
	}
	if got := snapshot(); got != before {
		t.Fatalf("refused QueryMulti changed the engine:\n got %+v\nwant %+v", got, before)
	}
}
