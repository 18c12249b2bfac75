package accel

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/systolic"
	"repro/internal/workload"
)

// geometryScan is one scan of a random small geometry, app, level and
// database size, exact (window 0) or cut at its proven cycle (window 1).
type geometryScan struct {
	res    ScanResult
	err    error
	layout ftl.DBLayout
	reads  uint64 // page reads the flash array simulated
}

// scanRandomGeometry runs the scan the selectors pick; ok is false when the
// database does not fit the geometry.
func scanRandomGeometry(chSel, chipSel, appSel, levelSel uint8, sizeSel uint16, window int64) (s geometryScan, ok bool) {
	apps := workload.Apps()
	channels := []int{1, 2, 4, 8}[chSel%4]
	chips := []int{1, 2, 4}[chipSel%3]
	app := apps[int(appSel)%len(apps)]
	level := Levels()[int(levelSel)%3]

	cfg := ssd.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: channels, ChipsPerChannel: chips, PlanesPerChip: 2,
		BlocksPerPlane: 64, PagesPerBlock: 32, PageBytes: 16 << 10,
	}
	dev, err := ssd.New(sim.NewEngine(), cfg)
	if err != nil {
		panic(err)
	}
	features := int64(channels*chips) * (40 + int64(sizeSel%2048))
	meta, err := dev.CreateDB("p", app.FeatureBytes(), features)
	if err != nil {
		// Tiny geometries may not fit ReId; acceptable.
		return s, false
	}
	s.layout = meta.Layout
	s.res, s.err = Scan(ScanRequest{
		Device: dev, Spec: SpecForLevel(level, cfg),
		Net: app.SCN, Layout: meta.Layout,
		WindowFeaturesPerAccel: window,
	})
	s.reads = dev.Flash.Stats().PageReads
	return s, true
}

// TestScanNoDeadlockAcrossGeometries: the event-driven scan must terminate
// and account every feature for arbitrary (small) geometries, apps, and
// levels, exact and cut — the failure-injection net for the
// prefetcher/barrier plumbing and for a cut that leaves a unit waiting for
// pages it never issued.
func TestScanNoDeadlockAcrossGeometries(t *testing.T) {
	f := func(chSel, chipSel, appSel, levelSel uint8, sizeSel uint16, cut bool) bool {
		window := int64(0)
		if cut {
			window = 1
		}
		s, ok := scanRandomGeometry(chSel, chipSel, appSel, levelSel, sizeSel, window)
		if !ok {
			return true
		}
		if s.err != nil {
			_, unsupported := s.err.(*ErrUnsupported)
			return unsupported
		}
		return s.res.Features == s.layout.Features && s.res.Elapsed > 0 && s.res.SimulatedFeatures > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScanPageAccounting: the pages a scan simulates plus the pages its cut
// skipped are the database's page footprint, exact or cut, over random
// geometries; an exact scan simulates every one of them.
func TestScanPageAccounting(t *testing.T) {
	cuts := 0
	f := func(chSel, chipSel, appSel, levelSel uint8, sizeSel uint16, cut bool) bool {
		window := int64(0)
		if cut {
			window = 1
		}
		s, ok := scanRandomGeometry(chSel, chipSel, appSel, levelSel, sizeSel, window)
		if !ok || errors.As(s.err, new(*ErrUnsupported)) {
			return true
		}
		if s.err != nil {
			t.Log(s.err)
			return false
		}
		pages := s.layout.TotalPages()
		read := s.res.Activity.FlashBytes / s.layout.Geom.PageBytes
		if s.res.SimulatedFeatures < s.res.Features {
			cuts++
		}
		if read != pages || s.reads > uint64(pages) || (!cut && s.reads != uint64(pages)) {
			t.Logf("window %d: %d pages simulated, %d counted; the database has %d", window, s.reads, read, pages)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	t.Logf("%d scans cut", cuts)
	if cuts == 0 {
		t.Error("no scan was cut: the accounting of skipped pages went untested")
	}
}

// TestScanEnergyScalesWithDB: doubling the database doubles activity
// (within extrapolation noise).
func TestScanEnergyScalesWithDB(t *testing.T) {
	run := func(features int64) ScanResult {
		app, _ := workload.ByName("TIR")
		e := sim.NewEngine()
		dev, _ := ssd.New(e, ssd.DefaultConfig())
		meta, _ := dev.CreateDB("t", app.FeatureBytes(), features)
		res, err := Scan(ScanRequest{
			Device: dev, Spec: SpecForLevel(LevelChannel, dev.Config),
			Net: app.SCN, Layout: meta.Layout,
			WindowFeaturesPerAccel: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(256_000)
	b := run(512_000)
	ratio := float64(b.Activity.FlashBytes) / float64(a.Activity.FlashBytes)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("flash bytes scaled %.2fx for 2x database", ratio)
	}
	tratio := float64(b.Elapsed) / float64(a.Elapsed)
	if tratio < 1.8 || tratio > 2.2 {
		t.Errorf("elapsed scaled %.2fx for 2x database", tratio)
	}
}

// TestScanPrecisionShrinksFlashTraffic: INT8 features occupy a quarter of
// the pages, the in-storage win of the §7 quantization extension.
func TestScanPrecisionShrinksFlashTraffic(t *testing.T) {
	app, _ := workload.ByName("MIR")
	run := func(p systolic.Precision) ScanResult {
		cfg := ssd.DefaultConfig()
		e := sim.NewEngine()
		dev, _ := ssd.New(e, cfg)
		spec := SpecForLevel(LevelChannel, cfg)
		spec.Array.Precision = p
		fb := int64(app.SCN.FeatureElems()) * p.ElementBytes()
		meta, _ := dev.CreateDB("m", fb, 64_000)
		res, err := Scan(ScanRequest{Device: dev, Spec: spec, Net: app.SCN, Layout: meta.Layout})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	f32 := run(systolic.FP32)
	i8 := run(systolic.INT8)
	ratio := float64(f32.Activity.FlashBytes) / float64(i8.Activity.FlashBytes)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("INT8 flash traffic ratio = %.2f, want ~4", ratio)
	}
	if i8.Elapsed >= f32.Elapsed {
		t.Error("INT8 scan not faster")
	}
}

// TestScanWeightSourceConsistency: the reported weight source matches the
// spec's decision for each app at the channel level.
func TestScanWeightSourceConsistency(t *testing.T) {
	want := map[string]WeightSource{
		"TextQA": SourceL1, "TIR": SourceL2, "MIR": SourceL2,
		"ESTP": SourceDRAM, "ReId": SourceDRAM,
	}
	for name, src := range want {
		res := scanApp(t, name, LevelChannel, 64_000, 500)
		if res.WeightSource != src {
			t.Errorf("%s: weight source %v, want %v", name, res.WeightSource, src)
		}
		if src != SourceL1 && res.WeightRounds == 0 {
			t.Errorf("%s: streaming source with zero rounds", name)
		}
	}
}
