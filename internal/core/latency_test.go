package core

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// qcLookup is the qcache_lookup stage's latency for a cache of the given
// size: the engine's QCN compared once per entry on the channel-level
// accelerators.
func qcLookup(ds *DeepStore, entries int64) sim.Duration {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	lat, _ := ds.comparisons(ds.qcn, accel.LevelChannel, entries, 1, 0, true)
	return lat
}

// TestQCLookupLatencyBand anchors the query-cache lookup cost to §6.5: "the
// cost of searching the entire query cache of 1K entries for this
// application [TIR] is 0.3 milliseconds". Our channel-level QCN execution
// model must land within an order of magnitude of that figure.
func TestQCLookupLatencyBand(t *testing.T) {
	ds, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("TIR")
	qcn := app.QCN()
	if err := ds.SetQC(qcn, 0.95, 1000, 0.1); err != nil {
		t.Fatal(err)
	}
	lat := qcLookup(ds, 1000)
	us := lat.Microseconds()
	if us < 10 || us > 1000 {
		t.Errorf("1K-entry QC lookup = %.1f us, want within [10, 1000] around the paper's 300 us", us)
	}
}

// TestQCLookupScalesWithEntries: lookup cost is linear in the cache size.
func TestQCLookupScalesWithEntries(t *testing.T) {
	ds, _ := New(DefaultOptions())
	app, _ := workload.ByName("TIR")
	if err := ds.SetQC(app.QCN(), 0.95, 1000, 0.1); err != nil {
		t.Fatal(err)
	}
	small := qcLookup(ds, 64)
	big := qcLookup(ds, 640)
	ratio := float64(big) / float64(small)
	if ratio < 5 || ratio > 15 {
		t.Errorf("lookup cost scaled %.1fx for 10x entries", ratio)
	}
	if qcLookup(ds, 0) != 0 {
		t.Error("empty cache lookup has cost")
	}
}

// TestQCLookupIgnoresDefaultLevel: the QCN always runs on the channel-level
// accelerators (§4.6), so a query's qcache_lookup stage does not depend on
// which level DefaultLevel names.
func TestQCLookupIgnoresDefaultLevel(t *testing.T) {
	app, _ := workload.ByName("TIR")
	vecs := workload.NewFeatureDB(app, 64, 2).Vectors
	qs := workload.NewFeatureDB(app, 9, 5).Vectors
	channel := accel.LevelChannel
	var want sim.Duration
	for i, level := range accel.Levels() {
		opts := DefaultOptions()
		opts.DefaultLevel = level
		ds, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		db, err := ds.WriteDB(vecs)
		if err != nil {
			t.Fatal(err)
		}
		model, err := ds.LoadModelNetwork(app.SCN)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.SetQC(app.QCN(), 1, 16, 1); err != nil {
			t.Fatal(err)
		}
		// The last query compares against every earlier one.
		var res *QueryResult
		for _, q := range qs {
			id, err := ds.Query(QuerySpec{QFV: q, K: 3, Model: model, DB: db, Level: &channel})
			if err != nil {
				t.Fatal(err)
			}
			if res, err = ds.GetResults(id); err != nil {
				t.Fatal(err)
			}
		}
		if res.Stages[0].Name != obs.StageQCacheLookup {
			t.Fatalf("first stage %q, want %q", res.Stages[0].Name, obs.StageQCacheLookup)
		}
		got := res.Stages[0].Dur
		if got == 0 {
			t.Fatalf("DefaultLevel %v: a %d-entry lookup took no time", level, len(qs)-1)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("qcache_lookup took %v with DefaultLevel %v, %v with %v", got, level, want, accel.Levels()[0])
		}
	}
}

// TestCacheHitBeatsScanByOrders: the §6.5 economics — a hit costs the QC
// lookup; a miss costs the lookup plus a database scan that is orders of
// magnitude larger for a paper-scale database.
func TestCacheHitBeatsScanByOrders(t *testing.T) {
	ds, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("TIR")
	app.SCN.InitRandom(1)
	dbID, err := ds.DeclareDB(app.FeatureBytes(), 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	qcn := perfectQCN(app.SCN.FeatureElems())
	if err := ds.SetQC(qcn, 1.0, 100, 0.2); err != nil {
		t.Fatal(err)
	}
	q := workload.NewFeatureDB(app, 1, 5).Vectors[0]
	id1, err := ds.Query(QuerySpec{QFV: q, K: 5, Model: model, DB: dbID})
	if err != nil {
		t.Fatal(err)
	}
	miss, _ := ds.GetResults(id1)
	id2, err := ds.Query(QuerySpec{QFV: q, K: 5, Model: model, DB: dbID})
	if err != nil {
		t.Fatal(err)
	}
	hit, _ := ds.GetResults(id2)
	if !hit.CacheHit {
		t.Fatal("identical query missed")
	}
	ratio := float64(miss.Latency) / float64(hit.Latency)
	if ratio < 100 {
		t.Errorf("miss/hit latency ratio = %.0f, want orders of magnitude", ratio)
	}
}

// TestLevelLatencyOrdering: for the same query, SSD-level execution is slower
// than channel-level (Fig. 8's ordering through the engine path).
func TestLevelLatencyOrdering(t *testing.T) {
	ds, _ := New(DefaultOptions())
	app, _ := workload.ByName("MIR")
	app.SCN.InitRandom(1)
	dbID, err := ds.DeclareDB(app.FeatureBytes(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := ds.LoadModelNetwork(app.SCN)
	q := make([]float32, app.SCN.FeatureElems())

	lat := func(level accel.Level) float64 {
		lvl := level
		qid, err := ds.Query(QuerySpec{QFV: q, K: 1, Model: model, DB: dbID, Level: &lvl})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := ds.GetResults(qid)
		return res.Latency.Seconds()
	}
	ssdSec := lat(accel.LevelSSD)
	chSec := lat(accel.LevelChannel)
	if ssdSec <= chSec {
		t.Errorf("SSD level (%.4fs) not slower than channel level (%.4fs)", ssdSec, chSec)
	}
	if ssdSec/chSec < 8 {
		t.Errorf("SSD/channel latency ratio = %.1f, want >= 8", ssdSec/chSec)
	}
}
