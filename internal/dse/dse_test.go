package dse

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/systolic"
)

func channelConstraints() Constraints {
	return Constraints{
		PowerBudgetW:          1.71,
		DRAMBandwidth:         20e9,
		FlashChannelBandwidth: 800e6,
		SRAMKind:              energy.ITRSHP,
		ScratchpadBytes:       512 << 10,
	}
}

func TestExploreChannelLevelLandsNearTable3(t *testing.T) {
	best, all := Explore(800e6, systolic.OutputStationary, channelConstraints())
	if len(all) == 0 {
		t.Fatal("no candidates evaluated")
	}
	if !best.Feasible {
		t.Fatalf("no feasible channel-level design: best = %v", best)
	}
	// Table 3 picks 1024 PEs (16x64) for the channel level; the search
	// must land within a factor of two of that under the 1.71 W budget.
	pes := best.Config.PEs()
	if pes < 512 || pes > 2048 {
		t.Errorf("channel-level DSE chose %d PEs (%v), want 512-2048", pes, best)
	}
	if best.PowerW > 1.71 {
		t.Errorf("chosen design exceeds budget: %v", best)
	}
}

func TestExploreSSDLevelUsesMorePEs(t *testing.T) {
	cons := channelConstraints()
	cons.PowerBudgetW = 55
	cons.ScratchpadBytes = 8 << 20
	bestSSD, _ := Explore(800e6, systolic.OutputStationary, cons)
	bestCh, _ := Explore(800e6, systolic.OutputStationary, channelConstraints())
	if bestSSD.Config.PEs() < bestCh.Config.PEs() {
		t.Errorf("SSD-level budget chose fewer PEs (%d) than channel level (%d)",
			bestSSD.Config.PEs(), bestCh.Config.PEs())
	}
}

func TestExploreChipLevelSmall(t *testing.T) {
	cons := Constraints{
		PowerBudgetW:          0.43,
		DRAMBandwidth:         20e9,
		FlashChannelBandwidth: 800e6,
		SRAMKind:              energy.ITRSLOP,
		ScratchpadBytes:       512 << 10,
	}
	best, _ := Explore(400e6, systolic.WeightStationary, cons)
	if !best.Feasible {
		t.Fatalf("no feasible chip-level design: %v", best)
	}
	if best.Config.PEs() > 512 {
		t.Errorf("chip-level DSE chose %d PEs, want <= 512 under 0.43 W", best.Config.PEs())
	}
}

// TestPowerMonotonicInPEs: the power a budget caps rises with the PE count.
func TestPowerMonotonicInPEs(t *testing.T) {
	cons := channelConstraints()
	prev := 0.0
	for pes := 128; pes <= 8192; pes *= 4 {
		cfg := systolic.Config{Rows: 16, Cols: pes / 16, FreqHz: 800e6,
			Dataflow: systolic.OutputStationary, ScratchpadBytes: cons.ScratchpadBytes, LayerOverhead: 64}
		p := PeakPowerW(cfg, cons.SRAMKind)
		if p <= prev {
			t.Errorf("power did not rise with more PEs: %v -> %v at %d", prev, p, pes)
		}
		prev = p
	}
}

func TestFigure6Shape(t *testing.T) {
	points := Figure6()
	if len(points) != 9 { // 128..32768
		t.Fatalf("got %d points, want 9", len(points))
	}
	if points[0].FCSpeedup != 1 || points[0].ConvSpeedup != 1 {
		t.Error("first point not normalized to 1")
	}
	last := points[len(points)-1]
	// Both curves rise then flatten; FC saturates earlier than conv.
	if last.FCSpeedup < 1.5 || last.ConvSpeedup < 2 {
		t.Errorf("final speedups too small: fc=%v conv=%v", last.FCSpeedup, last.ConvSpeedup)
	}
	fcSat := SaturationPE(points, false, 0.05)
	convSat := SaturationPE(points, true, 0.05)
	if fcSat != 512 {
		t.Errorf("FC saturates at %d PEs, want 512 (paper: 512)", fcSat)
	}
	if convSat <= fcSat {
		t.Errorf("conv saturation (%d) not after FC (%d)", convSat, fcSat)
	}
	if convSat > 8192 {
		t.Errorf("conv saturates too late: %d (paper: 1024)", convSat)
	}
	// Monotone non-decreasing speedups.
	for i := 1; i < len(points); i++ {
		if points[i].FCSpeedup < points[i-1].FCSpeedup*0.999 ||
			points[i].ConvSpeedup < points[i-1].ConvSpeedup*0.999 {
			t.Errorf("speedup regressed at %d PEs", points[i].PEs)
		}
	}
}

func TestLargestLayers(t *testing.T) {
	fc := largestFCLayer()
	if fc.Out.Elems() != 512 {
		t.Errorf("largest FC output = %d, want 512 (TIR fc1)", fc.Out.Elems())
	}
	conv := largestConvLayer()
	if conv.Kind.String() != "CONV" {
		t.Errorf("largest conv kind = %v", conv.Kind)
	}
}
