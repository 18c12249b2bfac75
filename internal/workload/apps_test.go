package workload

import (
	"math"
	"testing"
)

// TestTable1Reproduction is the Table 1 check: every reconstructed SCN must
// match the paper's reported characteristics.
func TestTable1Reproduction(t *testing.T) {
	const tolerance = 0.20 // 20% band on FLOPs and weight bytes

	apps := Apps()
	if len(apps) != 5 {
		t.Fatalf("got %d apps, want 5", len(apps))
	}
	for _, a := range apps {
		t.Run(a.Name, func(t *testing.T) {
			p := a.Paper
			// Feature size determines I/O volume; Table 1 rounds to one
			// decimal (TextQA's "0.8 KB" is 200 floats = 800 B), so allow 3%.
			gotKB := float64(a.FeatureBytes()) / 1024
			if math.Abs(gotKB-p.FeatureKB)/p.FeatureKB > 0.03 {
				t.Errorf("feature size = %.3f KB, want %.2f KB", gotKB, p.FeatureKB)
			}
			conv, fc, ew := a.SCN.CountKinds()
			if conv != p.ConvLayers || fc != p.FCLayers || ew != p.EWLayers {
				t.Errorf("layer counts = (%d conv, %d fc, %d ew), want (%d, %d, %d)",
					conv, fc, ew, p.ConvLayers, p.FCLayers, p.EWLayers)
			}
			flops := float64(a.SCN.FLOPsPerComparison())
			if rel := math.Abs(flops-p.TotalFLOPs) / p.TotalFLOPs; rel > tolerance {
				t.Errorf("FLOPs = %.3g, want %.3g (%.0f%% off)", flops, p.TotalFLOPs, rel*100)
			}
			wb := float64(a.SCN.WeightBytes())
			if rel := math.Abs(wb-p.WeightBytes) / p.WeightBytes; rel > tolerance {
				t.Errorf("weights = %.3g B, want %.3g B (%.0f%% off)", wb, p.WeightBytes, rel*100)
			}
		})
	}
}

func TestByName(t *testing.T) {
	for _, name := range AppNames() {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if a.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, a.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown app did not error")
	}
}

func TestAppScoresAreFinite(t *testing.T) {
	for _, a := range Apps() {
		a.SCN.InitRandom(1)
		db := NewFeatureDB(a, 4, 2)
		q := db.Vectors[0]
		for i, d := range db.Vectors {
			s := a.SCN.Score(q, d)
			if math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) {
				t.Errorf("%s: score(q, db[%d]) = %v", a.Name, i, s)
			}
		}
	}
}

func TestQCNScoresInZeroOne(t *testing.T) {
	for _, a := range Apps() {
		qcn := a.QCN()
		qcn.InitRandom(3)
		db := NewFeatureDB(a, 3, 4)
		for i := 0; i < db.Len(); i++ {
			for j := 0; j < db.Len(); j++ {
				s := qcn.Score(db.Vectors[i], db.Vectors[j])
				if s < 0 || s > 1 {
					t.Errorf("%s QCN score = %v, want in [0,1] (sigmoid output)", a.Name, s)
				}
			}
		}
	}
}

func TestBatchSizesMatchFigure2(t *testing.T) {
	// Figure 2 sweeps and §6.2 default batch sizes.
	want := map[string]struct {
		sweep    []int
		defBatch int
	}{
		"ReId":   {[]int{500, 1000, 1500, 2000}, 2000},
		"MIR":    {[]int{5000, 10000, 20000, 50000}, 50000},
		"ESTP":   {[]int{5000, 10000, 20000, 50000}, 50000},
		"TIR":    {[]int{5000, 10000, 20000, 50000}, 50000},
		"TextQA": {[]int{10000, 20000, 50000, 100000}, 100000},
	}
	for _, a := range Apps() {
		w := want[a.Name]
		if a.DefaultBatch != w.defBatch {
			t.Errorf("%s default batch = %d, want %d", a.Name, a.DefaultBatch, w.defBatch)
		}
		if len(a.BatchSizes) != len(w.sweep) {
			t.Fatalf("%s has %d batch sizes", a.Name, len(a.BatchSizes))
		}
		for i := range w.sweep {
			if a.BatchSizes[i] != w.sweep[i] {
				t.Errorf("%s batch sizes = %v, want %v", a.Name, a.BatchSizes, w.sweep)
				break
			}
		}
	}
}

func TestPaperSpec(t *testing.T) {
	mir, _ := ByName("MIR")
	spec := PaperSpec(mir)
	if spec.FeatureBytes != 2048 {
		t.Errorf("MIR feature bytes = %d, want 2048", spec.FeatureBytes)
	}
	wantFeatures := int64(25<<30) / 2048
	if spec.Features != wantFeatures {
		t.Errorf("MIR features = %d, want %d", spec.Features, wantFeatures)
	}
	if b := spec.Features * spec.FeatureBytes; b > PaperDBBytes {
		t.Errorf("spec bytes %d exceed 25 GiB", b)
	}
	if spec.String() == "" {
		t.Error("empty spec string")
	}
}

func TestFeatureDBDeterministic(t *testing.T) {
	a, _ := ByName("TIR")
	d1 := NewFeatureDB(a, 5, 7)
	d2 := NewFeatureDB(a, 5, 7)
	for i := range d1.Vectors {
		for j := range d1.Vectors[i] {
			if d1.Vectors[i][j] != d2.Vectors[i][j] {
				t.Fatal("feature DB not deterministic")
			}
		}
	}
	if d1.Bytes() != 5*512*4 {
		t.Errorf("db bytes = %d, want %d", d1.Bytes(), 5*512*4)
	}
}

// TestReIdUsesThreeFlashPages checks the §6.4 observation: each ReId feature
// vector spans three 16 KB flash pages.
func TestReIdUsesThreeFlashPages(t *testing.T) {
	reid, _ := ByName("ReId")
	const pageSize = 16 << 10
	pages := (reid.FeatureBytes() + pageSize - 1) / pageSize
	if pages != 3 {
		t.Errorf("ReId feature spans %d pages, want 3", pages)
	}
}
