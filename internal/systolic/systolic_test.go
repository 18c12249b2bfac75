package systolic

import (
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func channelConfig() Config {
	// Table 3 channel-level accelerator: 16×64 OS @ 800 MHz, 512 KB.
	return Config{Rows: 16, Cols: 64, FreqHz: 800e6, Dataflow: OutputStationary,
		ScratchpadBytes: 512 << 10, LayerOverhead: 64}
}

func fcDims(in, out int) nn.LayerDims {
	fc := nn.NewFC("fc", in, out, nn.ActNone)
	return nn.LayerDims{
		Name: "fc", Kind: nn.KindFC,
		In: tensor.Shape{in}, Out: tensor.Shape{out},
		FLOPs: fc.FLOPs(tensor.Shape{in}), Weights: fc.WeightCount(),
	}
}

func ewDims(n int) nn.LayerDims {
	return nn.LayerDims{Name: "ew", Kind: nn.KindElementwise,
		In: tensor.Shape{n}, Out: tensor.Shape{n}, FLOPs: int64(n)}
}

func convDims(h, w, c, k, r, s, stride, pad int) nn.LayerDims {
	cv := nn.NewConv("conv", h, w, c, k, r, s, stride, pad, nn.ActNone)
	in := tensor.Shape{h, w, c}
	return nn.LayerDims{
		Name: "conv", Kind: nn.KindConv,
		In: in, Out: cv.OutputShape(in),
		FLOPs: cv.FLOPs(in), Weights: cv.WeightCount(),
		K: k, R: r, S: s, C: c, Stride: stride,
	}
}

func TestFCCostOSExact(t *testing.T) {
	// FC 512x512 on 16x64 OS: effP = min(1024, 512 outputs) = 512,
	// compute = 262144/512 = 512 = reduction floor; fill = 78; overhead 64.
	cfg := channelConfig()
	lc := cfg.LayerCost(fcDims(512, 512))
	want := int64(512 + (16 + 64 - 2) + 64)
	if lc.Cycles != want {
		t.Errorf("cycles = %d, want %d", lc.Cycles, want)
	}
	if lc.MACs != 512*512 {
		t.Errorf("MACs = %d, want %d", lc.MACs, 512*512)
	}
	if lc.Utilization <= 0 || lc.Utilization > 1 {
		t.Errorf("utilization = %v", lc.Utilization)
	}
	if lc.WeightBytes != (512*512+512)*4 {
		t.Errorf("weight bytes = %d", lc.WeightBytes)
	}
}

func TestElementwiseRowParallelism(t *testing.T) {
	// §4.3: EW throughput scales with the number of rows.
	cfg := channelConfig() // 16 rows
	lc := cfg.LayerCost(ewDims(512))
	want := int64(512/16) + cfg.LayerOverhead
	if lc.Cycles != want {
		t.Errorf("ew cycles = %d, want %d", lc.Cycles, want)
	}
	wide := cfg
	wide.Rows = 32
	if wc := wide.LayerCost(ewDims(512)); wc.Cycles >= lc.Cycles {
		t.Errorf("more rows did not speed up EW: %d vs %d", wc.Cycles, lc.Cycles)
	}
}

func TestConvCostCountsMACs(t *testing.T) {
	cfg := channelConfig()
	d := convDims(32, 22, 16, 16, 3, 3, 1, 1)
	lc := cfg.LayerCost(d)
	wantMACs := int64(32*22) * int64(3*3*16) * 16
	if lc.MACs != wantMACs {
		t.Errorf("conv MACs = %d, want %d", lc.MACs, wantMACs)
	}
	if lc.Cycles <= 0 {
		t.Error("conv cycles not positive")
	}
	// FLOPs = 2*MACs must match the nn layer's own accounting.
	if 2*lc.MACs != d.FLOPs {
		t.Errorf("2*MACs = %d != layer FLOPs %d", 2*lc.MACs, d.FLOPs)
	}
}

func TestWSDataflowCost(t *testing.T) {
	// Chip-level config: 4×32 WS @ 400 MHz (Table 3).
	cfg := Config{Rows: 4, Cols: 32, FreqHz: 400e6, Dataflow: WeightStationary,
		ScratchpadBytes: 512 << 10, LayerOverhead: 64}
	lc := cfg.LayerCost(fcDims(200, 200))
	// tiles = ceil(200/4)*ceil(200/32) = 350, each paying load R=4, stream
	// M=1, and the rotate overhead 8; plus fill 34 and layer overhead 64.
	want := int64(350*(4+1+8) + 34 + 64)
	if lc.WeightLoadCycles != 350*4 {
		t.Errorf("weight load cycles = %d, want 1400", lc.WeightLoadCycles)
	}
	if lc.Cycles != want {
		t.Errorf("WS cycles = %d, want %d", lc.Cycles, want)
	}
}

func TestNetworkCostAggregates(t *testing.T) {
	cfg := channelConfig()
	tir, err := workload.ByName("TIR")
	if err != nil {
		t.Fatal(err)
	}
	plan := tir.SCN.LayerPlan()
	nc := cfg.NetworkCost(plan)
	if len(nc.Layers) != len(plan) {
		t.Fatalf("layer costs = %d, want %d", len(nc.Layers), len(plan))
	}
	var cyc, macs int64
	for _, l := range nc.Layers {
		cyc += l.Cycles
		macs += l.MACs
	}
	if nc.Cycles != cyc || nc.MACs != macs {
		t.Error("network cost does not equal sum of layer costs")
	}
	// GEMM layers count 2 FLOPs per MAC; the 512-wide element-wise combine
	// counts 1 FLOP per element, so 2·MACs = FLOPs + 512.
	if 2*nc.MACs != tir.SCN.FLOPsPerComparison()+512 {
		t.Errorf("2*MACs = %d, want FLOPs+512 = %d", 2*nc.MACs, tir.SCN.FLOPsPerComparison()+512)
	}
	if nc.WeightBytes != tir.SCN.WeightBytes() {
		t.Errorf("weight bytes = %d, want %d", nc.WeightBytes, tir.SCN.WeightBytes())
	}
}

func TestAspects(t *testing.T) {
	as := Aspects(1024)
	// All power-of-two (r, c) with r*c <= 1024: sum_{i=0..10} (11-i) = 66.
	if len(as) != 66 {
		t.Fatalf("1024 has %d aspects, want 66", len(as))
	}
	full := 0
	for _, a := range as {
		if a.Rows*a.Cols > 1024 {
			t.Errorf("aspect %v exceeds budget", a)
		}
		if a.Rows*a.Cols == 1024 {
			full++
		}
	}
	if full != 11 {
		t.Errorf("%d full-budget aspects, want 11", full)
	}
}

func TestAspectsRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two budget did not panic")
		}
	}()
	Aspects(100)
}

// TestFCSaturatesAt512 reproduces the Figure 6 FC observation: for the
// largest studied FC layer (512 outputs), performance stops improving once
// the array reaches 512 PEs.
func TestFCSaturatesAt512(t *testing.T) {
	plan := []nn.LayerDims{fcDims(512, 512)}
	cycAt := func(pes int) int64 {
		_, cost := BestAspect(pes, 800e6, OutputStationary, 64, plan)
		return cost.Cycles
	}
	c128, c256, c512, c1024, c4096 := cycAt(128), cycAt(256), cycAt(512), cycAt(1024), cycAt(4096)
	if !(c128 > c256 && c256 > c512) {
		t.Errorf("FC not improving up to 512 PEs: %d, %d, %d", c128, c256, c512)
	}
	// Beyond 512 the gain must be negligible (< 5%).
	if float64(c512-c1024) > 0.05*float64(c512) {
		t.Errorf("FC still improving past 512 PEs: %d -> %d", c512, c1024)
	}
	if float64(c512-c4096) > 0.05*float64(c512) {
		t.Errorf("FC still improving at 4096 PEs: %d -> %d", c512, c4096)
	}
}

// TestConvSaturatesAfterFC reproduces the Figure 6 conv observation: the
// conv layer keeps scaling past the FC saturation point and flattens later.
func TestConvSaturatesAfterFC(t *testing.T) {
	plan := []nn.LayerDims{convDims(32, 22, 16, 16, 3, 3, 1, 1)}
	cycAt := func(pes int) int64 {
		_, cost := BestAspect(pes, 800e6, OutputStationary, 64, plan)
		return cost.Cycles
	}
	c512, c1024 := cycAt(512), cycAt(1024)
	if float64(c512-c1024) < 0.10*float64(c512) {
		t.Errorf("conv already saturated at 512: %d -> %d", c512, c1024)
	}
	c8192, c32768 := cycAt(8192), cycAt(32768)
	if float64(c8192-c32768) > 0.05*float64(c8192) {
		t.Errorf("conv still improving at 32768 PEs: %d -> %d", c8192, c32768)
	}
	if c32768 > c8192 {
		t.Errorf("conv slower with more PEs: %d -> %d", c8192, c32768)
	}
}

// Property: more PEs (with best aspect) never makes the network slower by
// more than fill-overhead noise, and utilization stays in (0, 1].
func TestBestAspectMonotonicProperty(t *testing.T) {
	tir, _ := workload.ByName("TIR")
	plan := tir.SCN.LayerPlan()
	f := func(shift uint8) bool {
		pes := 128 << (shift % 8) // 128..16384
		_, small := BestAspect(pes, 800e6, OutputStationary, 64, plan)
		_, big := BestAspect(pes*2, 800e6, OutputStationary, 64, plan)
		// Allow 1% regression for fill effects.
		return float64(big.Cycles) <= 1.01*float64(small.Cycles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationBounds(t *testing.T) {
	cfg := channelConfig()
	for _, a := range workload.Apps() {
		nc := cfg.NetworkCost(a.SCN.LayerPlan())
		u := util(nc.MACs, nc.Cycles, int64(cfg.PEs()))
		if u <= 0 || u > 1 {
			t.Errorf("%s: utilization = %v", a.Name, u)
		}
	}
}

func TestWeightsResident(t *testing.T) {
	cfg := channelConfig() // 512 KB scratchpad
	if cfg.WeightsResident(512 << 10) {
		t.Error("full-scratchpad weights reported resident (no activation room)")
	}
	if !cfg.WeightsResident(256 << 10) {
		t.Error("half-scratchpad weights not resident")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Rows: 0, Cols: 4, FreqHz: 1e9},
		{Rows: 4, Cols: 0, FreqHz: 1e9},
		{Rows: 4, Cols: 4, FreqHz: 0},
		{Rows: 4, Cols: 4, FreqHz: 1e9, ScratchpadBytes: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated", i)
		}
	}
	good := channelConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if good.PEs() != 1024 {
		t.Errorf("PEs = %d, want 1024", good.PEs())
	}
	if good.CyclePs() != 1250 {
		t.Errorf("cycle = %v ps, want 1250", good.CyclePs())
	}
}

func TestDataflowString(t *testing.T) {
	if OutputStationary.String() != "OS" || WeightStationary.String() != "WS" {
		t.Error("dataflow strings wrong")
	}
}
