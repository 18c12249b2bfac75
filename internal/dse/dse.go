// Package dse implements the design-space exploration of §4.5: sweeping
// systolic-array sizes and aspect ratios under the SSD's power, DRAM- and
// flash-bandwidth budgets to derive the Table 3 accelerator configurations,
// and the Figure 6 PE-scaling study.
package dse

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/nn"
	"repro/internal/systolic"
	"repro/internal/workload"
)

// Constraints bound the §4.5 exploration.
type Constraints struct {
	// PowerBudgetW is the per-accelerator budget (55 W at SSD level,
	// 1.71 W per channel, 0.43 W per chip).
	PowerBudgetW float64
	// DRAMBandwidth and FlashChannelBandwidth cap streaming rates
	// (20 GB/s and 800 MB/s in §4.5); they bound the useful array size
	// indirectly through the workloads' weight traffic.
	DRAMBandwidth         float64
	FlashChannelBandwidth float64
	// SRAMKind selects the scratchpad energy model.
	SRAMKind energy.SRAMKind
	// ScratchpadBytes is the candidate scratchpad size.
	ScratchpadBytes int64
}

// Candidate is one evaluated design point.
type Candidate struct {
	Config systolic.Config
	// MeanCycles is the per-feature comparison latency averaged (geometric
	// mean) over the five studied applications.
	MeanCycles float64
	// PowerW is the estimated average power while scanning.
	PowerW   float64
	Feasible bool
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// PeakPowerW estimates the design's worst-case draw — what a power budget
// actually caps: every PE issuing a MAC per cycle (mult/add stages
// interleave, hence the 0.5 activity factor) plus the scratchpad edge
// streams feeding the array.
func PeakPowerW(cfg systolic.Config, kind energy.SRAMKind) float64 {
	pes := float64(cfg.PEs())
	array := pes * cfg.FreqHz * energy.MACJoules * 0.5
	edgeBytesPerCyc := float64(cfg.Rows+cfg.Cols) * 4
	sram := edgeBytesPerCyc * cfg.FreqHz * energy.SRAMJoulesPerByte(maxI64(cfg.ScratchpadBytes, 64<<10), kind)
	return array + sram
}

// Explore sweeps PE budgets (powers of two, 32..32768) and aspect ratios at
// the given frequency/dataflow, evaluating each candidate on all five
// applications. The chosen design is the feasible candidate with the lowest
// mean latency, breaking ties toward fewer PEs (energy).
func Explore(freqHz float64, df systolic.Dataflow, cons Constraints) (best Candidate, all []Candidate) {
	apps := workload.Apps()

	for pes := 32; pes <= 32768; pes *= 2 {
		for _, a := range systolic.Aspects(pes) {
			if a.Rows*a.Cols != pes {
				continue // budget sweep: evaluate full-budget shapes
			}
			cfg := systolic.Config{
				Rows: a.Rows, Cols: a.Cols, FreqHz: freqHz, Dataflow: df,
				ScratchpadBytes: cons.ScratchpadBytes, LayerOverhead: 64,
			}
			var logSum float64
			for _, app := range apps {
				cost := cfg.NetworkCost(app.SCN.LayerPlan())
				logSum += math.Log(float64(cost.Cycles))
			}
			power := PeakPowerW(cfg, cons.SRAMKind)
			c := Candidate{
				Config:     cfg,
				MeanCycles: math.Exp(logSum / float64(len(apps))),
				PowerW:     power,
				Feasible:   power <= cons.PowerBudgetW,
			}
			all = append(all, c)
			if !c.Feasible {
				continue
			}
			if best.Config.Rows == 0 ||
				c.MeanCycles < best.MeanCycles*0.995 ||
				(c.MeanCycles < best.MeanCycles*1.005 && c.Config.PEs() < best.Config.PEs()) {
				best = c
			}
		}
	}
	if best.Config.Rows == 0 && len(all) > 0 {
		// Nothing feasible: return the lowest-power point, marked
		// infeasible, so callers can report the violation.
		best = all[0]
		for _, c := range all {
			if c.PowerW < best.PowerW {
				best = c
			}
		}
	}
	return best, all
}

// Fig6Point is one Figure 6 measurement.
type Fig6Point struct {
	PEs            int
	FCSpeedup      float64
	ConvSpeedup    float64
	FCBestAspect   systolic.Aspect
	ConvBestAspect systolic.Aspect
}

// largestFCLayer returns the largest fully connected layer across the
// studied applications (by output width, the OS parallelism limit): TIR's
// 512×512.
func largestFCLayer() nn.LayerDims {
	var best nn.LayerDims
	for _, app := range workload.Apps() {
		for _, d := range app.SCN.LayerPlan() {
			if d.Kind == nn.KindFC && d.Out.Elems() > best.Out.Elems() {
				best = d
			}
		}
	}
	return best
}

// largestConvLayer returns the largest convolutional layer (by FLOPs):
// ReId's conv1.
func largestConvLayer() nn.LayerDims {
	var best nn.LayerDims
	for _, app := range workload.Apps() {
		for _, d := range app.SCN.LayerPlan() {
			if d.Kind == nn.KindConv && d.FLOPs > best.FLOPs {
				best = d
			}
		}
	}
	return best
}

// Figure6 sweeps the PE count from 128 to 32768 for the largest FC and conv
// layers in the studied applications, taking the best aspect ratio at every
// point and assuming infinite memory bandwidth (§4.5). Speedups are
// normalized to the 128-PE point.
func Figure6() []Fig6Point {
	fc := largestFCLayer()
	conv := largestConvLayer()
	if fc.Name == "" || conv.Name == "" {
		panic("dse: model zoo lacks FC or conv layers")
	}
	var points []Fig6Point
	var fcBase, convBase float64
	for pes := 128; pes <= 32768; pes *= 2 {
		fcCfg, fcCost := systolic.BestAspect(pes, 800e6, systolic.OutputStationary, 64, []nn.LayerDims{fc})
		cvCfg, cvCost := systolic.BestAspect(pes, 800e6, systolic.OutputStationary, 64, []nn.LayerDims{conv})
		if pes == 128 {
			fcBase = float64(fcCost.Cycles)
			convBase = float64(cvCost.Cycles)
		}
		points = append(points, Fig6Point{
			PEs:            pes,
			FCSpeedup:      fcBase / float64(fcCost.Cycles),
			ConvSpeedup:    convBase / float64(cvCost.Cycles),
			FCBestAspect:   systolic.Aspect{Rows: fcCfg.Rows, Cols: fcCfg.Cols},
			ConvBestAspect: systolic.Aspect{Rows: cvCfg.Rows, Cols: cvCfg.Cols},
		})
	}
	return points
}

// SaturationPE returns the smallest swept PE count within tol of the final
// speedup, i.e. where the Figure 6 curve flattens.
func SaturationPE(points []Fig6Point, conv bool, tol float64) int {
	if len(points) == 0 {
		return 0
	}
	final := points[len(points)-1].FCSpeedup
	if conv {
		final = points[len(points)-1].ConvSpeedup
	}
	for _, p := range points {
		v := p.FCSpeedup
		if conv {
			v = p.ConvSpeedup
		}
		if v >= final*(1-tol) {
			return p.PEs
		}
	}
	return points[len(points)-1].PEs
}

// String renders a candidate.
func (c Candidate) String() string {
	return fmt.Sprintf("%dx%d %s @%.0fMHz: %.0f cycles, %.2f W (feasible=%v)",
		c.Config.Rows, c.Config.Cols, c.Config.Dataflow, c.Config.FreqHz/1e6,
		c.MeanCycles, c.PowerW, c.Feasible)
}
