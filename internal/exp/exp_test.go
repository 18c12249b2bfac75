package exp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/ssd"
	"repro/internal/systolic"
	"repro/internal/workload"
)

// TestFigure8ShapeBands is the headline reproduction check: for every
// application the system ordering and rough factors of Figure 8 / Table 4
// hold.
func TestFigure8ShapeBands(t *testing.T) {
	rows, err := Figure8(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Wimpy cores are far slower than the GPU+SSD baseline (§6.2:
		// 4.5-22.8x slower).
		if r.WimpySpeedup >= 0.5 {
			t.Errorf("%s: wimpy speedup %.2f not << 1", r.App, r.WimpySpeedup)
		}
		// SSD-level is slower than the baseline (paper: 0.1-0.6x).
		if s := r.Speedup[accel.LevelSSD]; s >= 1.0 || s < 0.05 {
			t.Errorf("%s: SSD-level speedup %.2f outside (0.05, 1)", r.App, s)
		}
		// Channel level wins for every app (paper: 3.9-17.7x).
		ch := r.Speedup[accel.LevelChannel]
		if ch < 3 || ch > 25 {
			t.Errorf("%s: channel speedup %.2f outside [3, 25]", r.App, ch)
		}
		chip := r.Speedup[accel.LevelChip]
		if r.App == "ReId" {
			if !math.IsNaN(chip) {
				t.Errorf("ReId chip-level speedup %.2f, want unsupported", chip)
			}
		} else {
			// Chip level sits between SSD level and channel level
			// (paper: 1.0-4.6x).
			if chip < 0.5 || chip > 10 {
				t.Errorf("%s: chip speedup %.2f outside [0.5, 10]", r.App, chip)
			}
			if chip >= ch {
				t.Errorf("%s: chip (%.2f) not below channel (%.2f)", r.App, chip, ch)
			}
		}
		// Channel level is 14.8-44.5x better than SSD level (§6.2).
		ratio := ch / r.Speedup[accel.LevelSSD]
		if ratio < 10 || ratio > 70 {
			t.Errorf("%s: channel/SSD ratio %.1f outside [10, 70]", r.App, ratio)
		}
		// Channel level is the most energy-efficient design (§6.4).
		if r.EnergyEff[accel.LevelChannel] <= r.EnergyEff[accel.LevelSSD] {
			t.Errorf("%s: channel energy eff not above SSD level", r.App)
		}
		if !math.IsNaN(r.EnergyEff[accel.LevelChip]) &&
			r.EnergyEff[accel.LevelChannel] <= r.EnergyEff[accel.LevelChip] {
			t.Errorf("%s: channel energy eff not above chip level", r.App)
		}
	}
	// TextQA is the best channel-level case, ReId the worst (Table 4).
	byApp := map[string]Fig8Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	if byApp["TextQA"].Speedup[accel.LevelChannel] <= byApp["ReId"].Speedup[accel.LevelChannel] {
		t.Error("TextQA channel speedup not above ReId")
	}
	// Up to ~78.6x energy efficiency, achieved by TextQA at channel level.
	maxEff := 0.0
	for _, r := range rows {
		if e := r.EnergyEff[accel.LevelChannel]; e > maxEff {
			maxEff = e
		}
	}
	if maxEff < 40 || maxEff > 120 {
		t.Errorf("peak channel energy efficiency %.1f outside [40, 120] (paper: 78.6)", maxEff)
	}
	// Figure 11 is a projection of the same rows; both have bar charts.
	rows11 := Figure11(rows)
	checkResult(t, Result{Tables: []report.Table{figure8Table(rows)}, Chart: figure8Chart(rows)}, nil)
	checkResult(t, Result{Tables: []report.Table{figure11Table(rows11)}, Chart: figure11Chart(rows11)}, nil)
	for _, chart := range []string{figure8Chart(rows), figure11Chart(rows11)} {
		if !strings.Contains(chart, "TextQA/Channel") {
			t.Errorf("chart lost a bar: %q", chart)
		}
	}
}

func TestTable1RowsComplete(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.FLOPs <= 0 || r.WeightMB <= 0 || r.Dataset == "" {
			t.Errorf("incomplete row %+v", r)
		}
		if rel := math.Abs(r.FLOPs-r.PaperFLOPs) / r.PaperFLOPs; rel > 0.20 {
			t.Errorf("%s FLOPs off by %.0f%%", r.App, rel*100)
		}
	}
	checkResult(t, tables(table1Table(rows)), nil)
}

func TestFigure2IOBand(t *testing.T) {
	rows := Figure2()
	if len(rows) != 40 { // 5 apps x 4 batches x 2 GPUs
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.IOFraction < 0.5 || r.IOFraction > 0.95 {
			t.Errorf("%s/%s: IO fraction %.2f outside band", r.App, r.GPU, r.IOFraction)
		}
		if math.Abs(r.TotalMs-(r.ReadMs+r.MemcpyMs+r.ComputeMs)) > 1e-6 {
			t.Errorf("%s: breakdown does not sum", r.App)
		}
	}
	checkResult(t, tables(figure2Table(rows)), nil)
}

func TestFigure9Insensitivity(t *testing.T) {
	rows, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.IsNaN(r.Speedup) {
			continue // chip-level ReId
		}
		switch r.System {
		case "Traditional":
			if r.Speedup != 1.0 {
				t.Errorf("traditional system sensitive to flash latency: %+v", r)
			}
		case "Channel", "Chip":
			// Paper: within ~10% even at 4x latency; allow 25%.
			if r.Speedup < 0.75 || r.Speedup > 1.25 {
				t.Errorf("%s/%s at %s: speedup %.2f outside [0.75, 1.25]",
					r.System, r.App, r.Ratio, r.Speedup)
			}
		}
	}
	checkResult(t, tables(figure9Table(rows)), nil)
}

func TestFigure10Scaling(t *testing.T) {
	a, err := Figure10a()
	if err != nil {
		t.Fatal(err)
	}
	get := func(sys string, ch int) float64 {
		for _, r := range a {
			if r.System == sys && r.Channels == ch {
				return r.Speedup
			}
		}
		t.Fatalf("missing %s/%d", sys, ch)
		return 0
	}
	// Channel level scales ~linearly with channels.
	if ratio := get("Channel", 64) / get("Channel", 4); ratio < 8 || ratio > 24 {
		t.Errorf("channel level scaled %.1fx from 4 to 64 channels, want ~16x", ratio)
	}
	// Traditional is flat beyond 8 channels.
	if math.Abs(get("Traditional", 64)-get("Traditional", 8)) > 0.1 {
		t.Error("traditional system not flat across channel counts")
	}
	// SSD level flat (compute bound).
	if r := get("SSD", 64) / get("SSD", 8); r > 1.3 {
		t.Errorf("SSD level scaled %.2fx with channels, want flat", r)
	}

	b, err := Figure10b()
	if err != nil {
		t.Fatal(err)
	}
	getB := func(sys string, n int) float64 {
		for _, r := range b {
			if r.System == sys && r.SSDs == n {
				return r.Speedup
			}
		}
		t.Fatalf("missing %s/%d", sys, n)
		return 0
	}
	// DeepStore scales linearly with SSDs; traditional sub-linearly.
	if ratio := getB("Channel", 8) / getB("Channel", 1); ratio < 7.5 || ratio > 8.5 {
		t.Errorf("channel level scaled %.2fx across 8 SSDs, want 8x", ratio)
	}
	tradRatio := getB("Traditional", 8) / getB("Traditional", 1)
	if tradRatio >= 7 || tradRatio <= 1.5 {
		t.Errorf("traditional scaled %.2fx across 8 SSDs, want sub-linear", tradRatio)
	}
	checkResult(t, tables(figure10aTable(a), figure10bTable(b)), nil)
}

func TestFigure12FractionsSum(t *testing.T) {
	rows, err := Figure12()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.IsNaN(r.Compute) {
			continue
		}
		if s := r.Compute + r.Memory + r.Flash; math.Abs(s-1) > 1e-6 {
			t.Errorf("%s/%v fractions sum to %v", r.App, r.Level, s)
		}
	}
	// §6.4: ReId's channel-level energy is flash-dominated.
	for _, r := range rows {
		if r.App == "ReId" && r.Level == accel.LevelChannel {
			if r.Flash < r.Compute || r.Flash < r.Memory {
				t.Errorf("ReId channel energy not flash-dominated: %+v", r)
			}
		}
	}
	checkResult(t, tables(figure12Table(rows)), nil)
}

func TestFigure13Trends(t *testing.T) {
	cfg := DefaultQCStudy()
	cfg.TraceLen = 6000
	rows, err := Figure13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byDist := map[string][]Fig13Row{}
	for _, r := range rows {
		byDist[r.Dist] = append(byDist[r.Dist], r)
	}
	for dist, rs := range byDist {
		for i := 1; i < len(rs); i++ {
			if rs[i].MissRate > rs[i-1].MissRate+1e-9 {
				t.Errorf("%s: miss rate increased with threshold", dist)
			}
			if rs[i].DeepStoreQC < rs[i-1].DeepStoreQC-1e-9 {
				t.Errorf("%s: DeepStore+QC speedup decreased with threshold", dist)
			}
		}
		last := rs[len(rs)-1]
		// QC must help at a relaxed threshold, and DeepStore+QC must beat
		// plain DeepStore (paper: 25.9x vs 10.7x for Zipfian).
		if last.DeepStoreQC <= last.DeepStore {
			t.Errorf("%s: QC did not improve DeepStore (%.1f vs %.1f)",
				dist, last.DeepStoreQC, last.DeepStore)
		}
		if last.TraditionalQC <= 1.2 {
			t.Errorf("%s: QC barely helped the traditional system (%.2f)", dist, last.TraditionalQC)
		}
	}
	// Zipfian locality beats uniform.
	u := byDist["uniform"][len(byDist["uniform"])-1]
	z := byDist["zipf-0.7"][len(byDist["zipf-0.7"])-1]
	if z.MissRate >= u.MissRate {
		t.Error("zipfian miss rate not below uniform")
	}
	checkResult(t, Result{Tables: []report.Table{Figure13Table(rows)}, Chart: figure13Chart(rows)}, nil)
	if !strings.Contains(figure13Chart(rows), "zipf-0.7") {
		t.Error("chart lost a distribution's line")
	}
}

func TestFigure14Trends(t *testing.T) {
	cfg := DefaultQCStudy()
	cfg.TraceLen = 6000
	rows := Figure14(cfg)
	byDist := map[string][]Fig14Row{}
	for _, r := range rows {
		byDist[r.Dist] = append(byDist[r.Dist], r)
	}
	for dist, rs := range byDist {
		for i := 1; i < len(rs); i++ {
			if rs[i].MissRate > rs[i-1].MissRate+0.02 {
				t.Errorf("%s: miss rate rose with larger cache", dist)
			}
		}
	}
	// Higher skew -> lower miss at every size.
	for i := range byDist["uniform"] {
		u, z7, z8 := byDist["uniform"][i], byDist["zipf-0.7"][i], byDist["zipf-0.8"][i]
		if !(z8.MissRate <= z7.MissRate+0.02 && z7.MissRate <= u.MissRate+0.02) {
			t.Errorf("entries=%d: skew ordering violated (%.2f, %.2f, %.2f)",
				u.Entries, u.MissRate, z7.MissRate, z8.MissRate)
		}
	}
	checkResult(t, Result{Tables: []report.Table{figure14Table(rows)}, Chart: figure14Chart(rows)}, nil)
	if !strings.Contains(figure14Chart(rows), "zipf-0.8") {
		t.Error("chart lost a distribution's line")
	}
}

func TestTable3Configurations(t *testing.T) {
	rows := Table3()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.DSE.Feasible {
			t.Errorf("%v: DSE found no feasible design", r.Level)
		}
		// The re-derived design must be within 4x of the Table 3 PE count.
		paperPEs := r.Paper.Rows * r.Paper.Cols
		dsePEs := r.DSE.Config.PEs()
		if dsePEs > 4*paperPEs || dsePEs < paperPEs/4 {
			t.Errorf("%v: DSE chose %d PEs vs Table 3's %d", r.Level, dsePEs, paperPEs)
		}
	}
	checkResult(t, tables(table3Table(rows)), nil)
}

// TestFigure6Rendering: the sweep's table carries the saturation note and
// its chart draws both layer kinds.
func TestFigure6Rendering(t *testing.T) {
	points := Figure6()
	tb := Figure6Table(points)
	checkResult(t, Result{Tables: []report.Table{tb}, Chart: figure6Chart(points)}, nil)
	if !strings.HasSuffix(tb.Text(), "(paper: 512 and 1024).\n") {
		t.Errorf("saturation note missing: %q", tb.Text())
	}
	if c := figure6Chart(points); !strings.Contains(c, "Convolution") {
		t.Errorf("chart: %q", c)
	}
}

func TestRunScanUnsupportedReported(t *testing.T) {
	reid, _ := workload.ByName("ReId")
	dev := ssd.DefaultConfig()
	out, err := RunScan(reid, accel.SpecForLevel(accel.LevelChip, dev), dev, workload.PaperSpec(reid).Features)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Unsupported {
		t.Error("chip-level ReId not reported unsupported")
	}
}

// TestRunScanScalesMACEnergyOnce: a reduced-precision scan's compute energy
// is its MACs at the FP32 constant times the precision's scale, applied once
// (accel.Scan records the scale in the activity; energy.Energy applies it).
func TestRunScanScalesMACEnergyOnce(t *testing.T) {
	app, _ := workload.ByName("TIR")
	dev := ssd.DefaultConfig()
	spec := accel.SpecForLevel(accel.LevelChannel, dev)
	spec.Array.Precision = systolic.INT8
	out, err := RunScan(app, spec, dev, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(out.Result.Activity.MACs) * energy.MACJoules * 0.12
	if want == 0 || math.Abs(out.Energy.ComputeJ-want) > 1e-12*want {
		t.Errorf("INT8 compute energy %v J, want %d MACs × %v J × 0.12 = %v J",
			out.Energy.ComputeJ, out.Result.Activity.MACs, energy.MACJoules, want)
	}
}
