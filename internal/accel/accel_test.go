package accel

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/systolic"
	"repro/internal/workload"
)

func TestSpecForLevelMatchesTable3(t *testing.T) {
	cfg := ssd.DefaultConfig()
	ssdSpec := SpecForLevel(LevelSSD, cfg)
	if ssdSpec.Array.Rows != 32 || ssdSpec.Array.Cols != 64 ||
		ssdSpec.Array.FreqHz != 800e6 || ssdSpec.Array.Dataflow != systolic.OutputStationary {
		t.Errorf("SSD spec = %+v", ssdSpec.Array)
	}
	if ssdSpec.Array.ScratchpadBytes != 8<<20 || ssdSpec.Count != 1 || ssdSpec.PowerBudgetW != 55 {
		t.Errorf("SSD spec fields wrong: %+v", ssdSpec)
	}
	if ssdSpec.AreaMM2 != 31.7 {
		t.Errorf("SSD area = %v", ssdSpec.AreaMM2)
	}

	ch := SpecForLevel(LevelChannel, cfg)
	if ch.Array.Rows != 16 || ch.Array.Cols != 64 || ch.Count != 32 ||
		ch.Array.ScratchpadBytes != 512<<10 || ch.Array.Dataflow != systolic.OutputStationary {
		t.Errorf("channel spec = %+v", ch)
	}
	if ch.PowerBudgetW < 1.7 || ch.PowerBudgetW > 1.72 {
		t.Errorf("channel power = %v W, want ~1.71", ch.PowerBudgetW)
	}

	chip := SpecForLevel(LevelChip, cfg)
	if chip.Array.Rows != 4 || chip.Array.Cols != 32 || chip.Count != 128 ||
		chip.Array.FreqHz != 400e6 || chip.Array.Dataflow != systolic.WeightStationary {
		t.Errorf("chip spec = %+v", chip)
	}
	if chip.PowerBudgetW < 0.42 || chip.PowerBudgetW > 0.44 {
		t.Errorf("chip power = %v W, want ~0.43", chip.PowerBudgetW)
	}
}

func TestWeightSourceTiers(t *testing.T) {
	cfg := ssd.DefaultConfig()
	ch := SpecForLevel(LevelChannel, cfg)
	cases := []struct {
		app  string
		want WeightSource
	}{
		{"TextQA", SourceL1}, // 0.16 MB fits the 512 KB scratchpad
		{"TIR", SourceL2},    // 1.5 MB -> shared 8 MB scratchpad
		{"MIR", SourceL2},    // 2 MB -> L2
		{"ESTP", SourceDRAM}, // 9 MB exceeds L2
		{"ReId", SourceDRAM}, // 10.7 MB exceeds L2
	}
	for _, c := range cases {
		app, err := workload.ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		got := ch.weightSource(app.SCN.WeightBytes(), cfg)
		if got != c.want {
			t.Errorf("%s at channel level: weight source = %v, want %v", c.app, got, c.want)
		}
	}
}

// TestChipLevelCannotRunReId reproduces the §6.2 footnote: the chip-level
// accelerator cannot execute ReId.
func TestChipLevelCannotRunReId(t *testing.T) {
	cfg := ssd.DefaultConfig()
	chip := SpecForLevel(LevelChip, cfg)
	reid, _ := workload.ByName("ReId")
	err := chip.CheckSupport(reid.SCN, cfg)
	if err == nil {
		t.Fatal("chip level accepted ReId")
	}
	var unsup *ErrUnsupported
	if !errors.As(err, &unsup) {
		t.Fatalf("error type = %T", err)
	}
	// Every other app must be supported at every level.
	for _, name := range []string{"MIR", "ESTP", "TIR", "TextQA"} {
		app, _ := workload.ByName(name)
		for _, l := range Levels() {
			spec := SpecForLevel(l, cfg)
			if err := spec.CheckSupport(app.SCN, cfg); err != nil {
				t.Errorf("%s unsupported at %v: %v", name, l, err)
			}
		}
	}
	// ReId is supported at SSD and channel levels.
	for _, l := range []Level{LevelSSD, LevelChannel} {
		if err := SpecForLevel(l, cfg).CheckSupport(reid.SCN, cfg); err != nil {
			t.Errorf("ReId unsupported at %v: %v", l, err)
		}
	}
}

// scanApp runs a windowed scan of a small database for tests.
func scanApp(t *testing.T, appName string, level Level, features int64, window int64) ScanResult {
	t.Helper()
	app, err := workload.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	dev, err := ssd.New(e, ssd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := dev.CreateDB(appName, app.FeatureBytes(), features)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Scan(ScanRequest{
		Device: dev, Spec: SpecForLevel(level, dev.Config),
		Net: app.SCN, Layout: meta.Layout,
		WindowFeaturesPerAccel: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScanChannelLevelCompletes(t *testing.T) {
	res := scanApp(t, "TIR", LevelChannel, 64_000, 0)
	if res.Features != 64_000 {
		t.Errorf("features = %d", res.Features)
	}
	if res.Accels != 32 {
		t.Errorf("accels = %d, want 32", res.Accels)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
	if res.WeightSource != SourceL2 {
		t.Errorf("TIR weight source = %v, want L2", res.WeightSource)
	}
	if res.Activity.MACs <= 0 || res.Activity.FlashBytes <= 0 {
		t.Errorf("activity empty: %+v", res.Activity)
	}
}

func TestScanLevelsOrdering(t *testing.T) {
	// For an I/O-light, compute-heavy sweep the parallel levels must beat
	// the single SSD-level accelerator, and channel must beat chip
	// (4x the aggregate compute).
	const features = 64_000
	ssdT := scanApp(t, "TIR", LevelSSD, features, 0).Elapsed
	chT := scanApp(t, "TIR", LevelChannel, features, 0).Elapsed
	chipT := scanApp(t, "TIR", LevelChip, features, 0).Elapsed
	if !(chT < chipT && chipT < ssdT) {
		t.Errorf("level ordering wrong: ssd=%v channel=%v chip=%v", ssdT, chT, chipT)
	}
	// Channel level exploits ~32 accelerators; expect a large gain.
	if float64(ssdT)/float64(chT) < 8 {
		t.Errorf("channel speedup over SSD level = %.1f, want >= 8", float64(ssdT)/float64(chT))
	}
}

// TestScanWindowExtrapolation: a scan cut once its batch cycle is proven
// lands on the exact scan's time, activity and weight rounds to the unit,
// for every app × precision × level at an odd database size, under flash
// read latencies from 1/8 to 4 times the default and channel bandwidths
// from 1/2 to 2 times, at windows 1, 16 and 1 000 (any positive window
// means the same thing). Slow flash is where the batch periods alternate
// rather than repeat one by one.
func TestScanWindowExtrapolation(t *testing.T) {
	const features = 64_001
	type timing struct{ readNum, readDen, bwNum, bwDen int64 }
	var timings []timing
	for _, r := range [][2]int64{{1, 8}, {1, 2}, {1, 1}, {2, 1}, {4, 1}} {
		for _, bw := range [][2]int64{{1, 2}, {1, 1}, {2, 1}} {
			timings = append(timings, timing{r[0], r[1], bw[0], bw[1]})
		}
	}
	scan := func(cfg ssd.Config, app *workload.App, level Level, p systolic.Precision, window int64) (ScanResult, error) {
		dev, err := ssd.New(sim.NewEngine(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec := SpecForLevel(level, dev.Config)
		spec.Array.Precision = p
		meta, err := dev.CreateDB(app.Name, int64(app.SCN.FeatureElems())*p.ElementBytes(), features)
		if err != nil {
			t.Fatal(err)
		}
		return Scan(ScanRequest{Device: dev, Spec: spec, Net: app.SCN, Layout: meta.Layout, WindowFeaturesPerAccel: window})
	}
	var mu sync.Mutex
	cells, skipped := 0, 0
	t.Run("timing", func(t *testing.T) {
		for _, tm := range timings {
			t.Run(fmt.Sprintf("read%d/%d-bus%d/%d", tm.readNum, tm.readDen, tm.bwNum, tm.bwDen), func(t *testing.T) {
				t.Parallel()
				cfg := ssd.DefaultConfig()
				cfg.Timing.ReadLatency = cfg.Timing.ReadLatency * sim.Duration(tm.readNum) / sim.Duration(tm.readDen)
				cfg.Timing.ChannelBandwidth = cfg.Timing.ChannelBandwidth * float64(tm.bwNum) / float64(tm.bwDen)
				for _, app := range workload.Apps() {
					for _, p := range []systolic.Precision{systolic.FP32, systolic.FP16, systolic.INT8} {
						for _, level := range Levels() {
							exact, err := scan(cfg, app, level, p, 0)
							if errors.As(err, new(*ErrUnsupported)) {
								continue
							} else if err != nil {
								t.Fatal(err)
							}
							for _, window := range []int64{1, 16, 1000} {
								got, err := scan(cfg, app, level, p, window)
								if err != nil {
									t.Fatal(err)
								}
								mu.Lock()
								cells++
								if got.SimulatedFeatures < got.Features {
									skipped++
								}
								mu.Unlock()
								if got.Elapsed != exact.Elapsed || got.Activity != exact.Activity || got.WeightRounds != exact.WeightRounds {
									t.Errorf("%s %v %v window %d (simulated %d of %d): got %v %+v %d rounds, exact %v %+v %d rounds",
										app.Name, p, level, window, got.SimulatedFeatures, got.Features,
										got.Elapsed, got.Activity, got.WeightRounds, exact.Elapsed, exact.Activity, exact.WeightRounds)
								}
							}
						}
					}
				}
			})
		}
	})
	t.Logf("%d of %d cells skipped batches", skipped, cells)
	if want := 126 * len(timings); cells != want || 2*skipped < cells {
		t.Errorf("%d of %d cells skipped batches; want %d cells, half skipping", skipped, cells, want)
	}

	// Under read faults no cycle is proven: the scan runs every batch.
	app, _ := workload.ByName("TIR")
	cfg := ssd.DefaultConfig()
	dev, err := ssd.New(sim.NewEngine(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Flash.SetReadFaults(flash.ReadFaults{ErrorRate: 0.25, Inj: fault.New(7)}); err != nil {
		t.Fatal(err)
	}
	meta, err := dev.CreateDB(app.Name, app.FeatureBytes(), features)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Scan(ScanRequest{Device: dev, Spec: SpecForLevel(LevelChannel, cfg), Net: app.SCN, Layout: meta.Layout, WindowFeaturesPerAccel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedFeatures != res.Features || dev.Flash.Stats().ReadRetries == 0 {
		t.Errorf("faulty scan simulated %d of %d features with %d retries; want all, with retries",
			res.SimulatedFeatures, res.Features, dev.Flash.Stats().ReadRetries)
	}
}

func TestScanReIdUsesDRAMRounds(t *testing.T) {
	res := scanApp(t, "ReId", LevelChannel, 6400, 0)
	if res.WeightSource != SourceDRAM {
		t.Fatalf("ReId weight source = %v, want DRAM", res.WeightSource)
	}
	if res.WeightRounds == 0 {
		t.Error("no weight-streaming rounds recorded")
	}
	if res.Activity.DRAMBytes == 0 {
		t.Error("no DRAM traffic recorded")
	}
}

func TestScanChipLevelSkipsBusForData(t *testing.T) {
	// TextQA weights are L1-resident, so at chip level nothing should
	// cross the channel buses.
	app, _ := workload.ByName("TextQA")
	e := sim.NewEngine()
	dev, _ := ssd.New(e, ssd.DefaultConfig())
	meta, _ := dev.CreateDB("t", app.FeatureBytes(), 128_000)
	res, err := Scan(ScanRequest{
		Device: dev, Spec: SpecForLevel(LevelChip, dev.Config),
		Net: app.SCN, Layout: meta.Layout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightSource != SourceL1 {
		t.Fatalf("weight source = %v", res.WeightSource)
	}
	if got := dev.Flash.Stats().BusBytes; got != 0 {
		t.Errorf("chip-level scan moved %d bytes over channel buses", got)
	}
	if res.Accels != 128 {
		t.Errorf("accels = %d, want 128", res.Accels)
	}
}

func TestScanRejectsMismatchedLayout(t *testing.T) {
	app, _ := workload.ByName("TIR")
	e := sim.NewEngine()
	dev, _ := ssd.New(e, ssd.DefaultConfig())
	meta, _ := dev.CreateDB("bad", 4096, 1000) // wrong feature size
	_, err := Scan(ScanRequest{
		Device: dev, Spec: SpecForLevel(LevelChannel, dev.Config),
		Net: app.SCN, Layout: meta.Layout,
	})
	if err == nil {
		t.Error("mismatched layout accepted")
	}
}

func TestScanChipRejectsReId(t *testing.T) {
	app, _ := workload.ByName("ReId")
	e := sim.NewEngine()
	dev, _ := ssd.New(e, ssd.DefaultConfig())
	meta, _ := dev.CreateDB("reid", app.FeatureBytes(), 3200)
	_, err := Scan(ScanRequest{
		Device: dev, Spec: SpecForLevel(LevelChip, dev.Config),
		Net: app.SCN, Layout: meta.Layout,
	})
	var unsup *ErrUnsupported
	if !errors.As(err, &unsup) {
		t.Errorf("chip-level ReId scan error = %v", err)
	}
}

func TestLevelStrings(t *testing.T) {
	if LevelSSD.String() != "SSD" || LevelChannel.String() != "Channel" || LevelChip.String() != "Chip" {
		t.Error("level strings wrong")
	}
	if SourceL1.String() != "L1" || SourceL2.String() != "L2" || SourceDRAM.String() != "DRAM" {
		t.Error("source strings wrong")
	}
}

// TestScanFasterFlashBarelyMatters reproduces Fig. 9's channel-level result:
// the accelerator is compute/bandwidth-bound, so even 4x slower flash reads
// change the scan time only mildly.
func TestScanFlashLatencyInsensitive(t *testing.T) {
	timeAt := func(lat sim.Duration) sim.Duration {
		app, _ := workload.ByName("MIR")
		e := sim.NewEngine()
		cfg := ssd.DefaultConfig()
		cfg.Timing.ReadLatency = lat
		dev, _ := ssd.New(e, cfg)
		meta, _ := dev.CreateDB("m", app.FeatureBytes(), 64_000)
		res, err := Scan(ScanRequest{
			Device: dev, Spec: SpecForLevel(LevelChannel, dev.Config),
			Net: app.SCN, Layout: meta.Layout,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	base := timeAt(53 * sim.Microsecond)
	slow := timeAt(212 * sim.Microsecond)
	if float64(slow) > 1.35*float64(base) {
		t.Errorf("4x flash latency slowed scan by %.0f%%, want < 35%%",
			100*(float64(slow)/float64(base)-1))
	}
}
