package deepstore

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/exp"
	"repro/internal/workload"
)

// TestMiniPaperPipeline runs a miniature version of the paper's full story
// through the public-facing layers: characterize the workloads (Table 1),
// confirm the baseline is I/O bound (§3), run the three accelerator levels
// (Fig. 8), and exercise the query cache (Fig. 13) — all in one scenario.
func TestMiniPaperPipeline(t *testing.T) {
	// 1. Workload characterization: five apps, all reconstructed to
	// Table 1 characteristics (enforced in detail by workload tests).
	apps := Apps()
	if len(apps) != 5 {
		t.Fatalf("model zoo has %d apps", len(apps))
	}

	// 2. The baseline is storage-I/O bound for every app (§3).
	base := baseline.DefaultConfig()
	for _, a := range apps {
		bd := base.Batch(a, a.DefaultBatch)
		if bd.IOFraction() < 0.5 {
			t.Errorf("%s: baseline I/O fraction %.2f", a.Name, bd.IOFraction())
		}
	}

	// 3. One mid-size scan per level for MIR; channel must win, SSD level
	// must lose to the baseline, chip in between (Fig. 8 ordering).
	mir, _ := AppByName("MIR")
	features := int64(256_000)
	baseSec, _ := base.ScanTime(mir, features, mir.DefaultBatch)
	secs := map[Level]float64{}
	dev := DefaultDeviceConfig()
	for _, level := range []Level{LevelSSD, LevelChannel, LevelChip} {
		out, err := exp.RunScan(mir, accel.SpecForLevel(level, dev), dev, features)
		if err != nil {
			t.Fatal(err)
		}
		secs[level] = out.Seconds
	}
	if !(secs[LevelChannel] < secs[LevelChip] && secs[LevelChip] < secs[LevelSSD]) {
		t.Errorf("level ordering violated: %v", secs)
	}
	if baseSec/secs[LevelChannel] < 3 {
		t.Errorf("channel speedup %.1f over baseline too small", baseSec/secs[LevelChannel])
	}
	if baseSec/secs[LevelSSD] > 1 {
		t.Errorf("SSD level unexpectedly beat the baseline")
	}

	// 4. End-to-end query with the cache on a real engine.
	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mir.SCN.InitRandom(5)
	db := NewFeatureDB(mir, 300, 8)
	dbID, err := sys.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sys.LoadModelNetwork(mir.SCN)
	if err != nil {
		t.Fatal(err)
	}
	qcn, err := NewNetwork("pipeline-qcn", []int{mir.SCN.FeatureElems()}, CombineHadamard,
		NewFC("sum", mir.SCN.FeatureElems(), 1, ActSigmoid))
	if err != nil {
		t.Fatal(err)
	}
	if fc, ok := qcn.Layers[0].(*FC); ok {
		for i := range fc.W {
			fc.W[i] = 0.5
		}
	}
	if err := sys.SetQC(qcn, 1.0, 16, 0.2); err != nil {
		t.Fatal(err)
	}
	q := db.Vectors[10]
	var missLat, hitLat float64
	for i := 0; i < 2; i++ {
		qid, err := sys.Query(QuerySpec{QFV: q, K: 3, Model: model, DB: dbID})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.GetResults(qid)
		if err != nil {
			t.Fatal(err)
		}
		// The query vector itself is in the database: it must rank first
		// if the SCN scores self-similarity highest; at minimum it must
		// appear in the top-K of a 300-feature scan... the SCN is an
		// arbitrary learned function, so assert only structure.
		if len(res.TopK) != 3 {
			t.Fatalf("topK = %d", len(res.TopK))
		}
		if i == 0 {
			if res.CacheHit {
				t.Fatal("cold query hit")
			}
			missLat = res.Latency.Seconds()
		} else {
			if !res.CacheHit {
				t.Fatal("repeat query missed")
			}
			hitLat = res.Latency.Seconds()
		}
	}
	if hitLat >= missLat {
		t.Errorf("cache hit (%.6fs) not faster than miss (%.6fs)", hitLat, missLat)
	}
}

// TestChipRejectionThroughEngine: the ErrUnsupported surfaces cleanly when a
// query pins ReId to the chip level.
func TestChipRejectionThroughEngine(t *testing.T) {
	sys, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reid, _ := AppByName("ReId")
	reid.SCN.InitRandom(1)
	db := NewFeatureDB(reid, 8, 2)
	dbID, err := sys.WriteDB(db.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sys.LoadModelNetwork(reid.SCN)
	if err != nil {
		t.Fatal(err)
	}
	lvl := LevelChip
	_, err = sys.Query(QuerySpec{QFV: db.Vectors[0], K: 1, Model: model, DB: dbID, Level: &lvl})
	if err == nil {
		t.Fatal("chip-level ReId query accepted")
	}
	var unsup *accel.ErrUnsupported
	if !asErr(err, &unsup) {
		t.Errorf("error type %T: %v", err, err)
	}
}

func asErr(err error, target **accel.ErrUnsupported) bool {
	for err != nil {
		if u, ok := err.(*accel.ErrUnsupported); ok {
			*target = u
			return true
		}
		type unwrapper interface{ Unwrap() error }
		uw, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = uw.Unwrap()
	}
	return false
}

// TestWorkloadFeatureSizesDrivePageLayout ties Table 1 to §4.4: each app's
// page footprint on the default geometry.
func TestWorkloadFeatureSizesDrivePageLayout(t *testing.T) {
	want := map[string]struct {
		featuresPerPage int
		pagesPerFeature int
	}{
		"ReId":   {0, 3},
		"MIR":    {8, 1},
		"ESTP":   {1, 1},
		"TIR":    {8, 1},
		"TextQA": {20, 1},
	}
	for _, a := range workload.Apps() {
		spec := workload.PaperSpec(a)
		_ = spec
		w := want[a.Name]
		const page = 16 << 10
		fpp := 0
		ppf := 1
		if a.FeatureBytes() <= page {
			fpp = int(page / a.FeatureBytes())
		} else {
			ppf = int((a.FeatureBytes() + page - 1) / page)
		}
		if fpp != w.featuresPerPage && w.featuresPerPage != 0 {
			t.Errorf("%s: %d features/page, want %d", a.Name, fpp, w.featuresPerPage)
		}
		if ppf != w.pagesPerFeature {
			t.Errorf("%s: %d pages/feature, want %d", a.Name, ppf, w.pagesPerFeature)
		}
	}
}
