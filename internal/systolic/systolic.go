// Package systolic models the timing and memory-access behaviour of the
// rectangular systolic-array accelerators in DeepStore (§4.3), playing the
// role SCALE-Sim plays in the paper's simulator. It is a first-order
// analytical model: every layer of a similarity comparison network is lowered
// to a GEMM (or an element-wise stream), mapped onto an R×C processing-engine
// array under an output-stationary (OS) or weight-stationary (WS) dataflow,
// and costed in cycles plus scratchpad/backing-store traffic.
package systolic

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// Dataflow selects the mapping strategy (Table 3: OS for SSD- and
// channel-level accelerators, WS for chip-level).
type Dataflow int

const (
	// OutputStationary keeps partial sums in the PEs while inputs and
	// weights stream through; good reuse for FC layers (§4.5).
	OutputStationary Dataflow = iota
	// WeightStationary pins a weight tile in the PEs while activations
	// stream; minimizes weight bandwidth for the chip-level design (§4.5).
	WeightStationary
)

// String names the dataflow as in Table 3.
func (d Dataflow) String() string {
	switch d {
	case OutputStationary:
		return "OS"
	case WeightStationary:
		return "WS"
	default:
		return fmt.Sprintf("Dataflow(%d)", int(d))
	}
}

// Config describes one systolic-array accelerator instance.
type Config struct {
	Rows, Cols int
	FreqHz     float64
	Dataflow   Dataflow
	// ScratchpadBytes is the accelerator-local SRAM (Table 3).
	ScratchpadBytes int64
	// LayerOverhead is the fixed controller/FSM cost charged per layer
	// (weight-address setup, FSM transitions, drain bookkeeping).
	LayerOverhead int64
	// SpadLatency is the scratchpad access latency in cycles, which scales
	// the array fill/drain cost. §5: 4 cycles for the SSD-level
	// accelerator's large shared scratchpad, 1 for channel/chip level.
	// Zero is treated as 1.
	SpadLatency int64
	// Precision selects the arithmetic width; the zero value is FP32, the
	// paper's evaluation setting.
	Precision Precision
}

func (c Config) spadLatency() int64 {
	if c.SpadLatency <= 0 {
		return 1
	}
	return c.SpadLatency
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("systolic: array %dx%d invalid", c.Rows, c.Cols)
	}
	if c.FreqHz <= 0 {
		return fmt.Errorf("systolic: frequency %v invalid", c.FreqHz)
	}
	if c.ScratchpadBytes < 0 {
		return fmt.Errorf("systolic: negative scratchpad")
	}
	return nil
}

// PEs returns the processing-engine count.
func (c Config) PEs() int { return c.Rows * c.Cols }

// CyclePs returns the cycle time in picoseconds.
func (c Config) CyclePs() float64 { return 1e12 / c.FreqHz }

// gemm captures the GEMM lowering of a layer: an M×K by K×N product.
// FC layers on a single feature have M=1; conv layers have M = output
// pixels, K = R·S·C reduction, N = filter count (im2col view).
type gemm struct {
	M, K, N int64
}

func lowerGEMM(d nn.LayerDims) (gemm, bool) {
	switch d.Kind {
	case nn.KindFC:
		return gemm{M: 1, K: int64(d.In.Elems()), N: int64(d.Out.Elems())}, true
	case nn.KindConv:
		out := d.Out
		if len(out) != 3 {
			return gemm{}, false
		}
		return gemm{
			M: int64(out[0]) * int64(out[1]),
			K: int64(d.R) * int64(d.S) * int64(d.C),
			N: int64(d.K),
		}, true
	default:
		return gemm{}, false
	}
}

// LayerCost is the modeled cost of one layer on one accelerator.
type LayerCost struct {
	Name   string
	Kind   nn.Kind
	Cycles int64
	MACs   int64
	// Utilization is MACs / (Cycles × PEs), the fraction of PE-cycles doing
	// useful multiply-accumulates.
	Utilization float64
	// SRAM traffic in bytes (reads of inputs and weights, writes of
	// outputs and partial sums) against the accelerator scratchpad.
	SRAMReadBytes  int64
	SRAMWriteBytes int64
	// WeightBytes is the layer's parameter footprint; whether it is
	// resident or streamed is decided by the accelerator composition.
	WeightBytes int64
	// WeightLoadCycles is the portion of Cycles spent loading weight tiles
	// into the array (WS dataflow only). When several features are batched
	// through a pinned weight tile, this portion amortizes across the
	// batch.
	WeightLoadCycles int64
}

// ceilDiv is ⌈a/b⌉ for positive b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// LayerCost models one layer.
func (c Config) LayerCost(d nn.LayerDims) LayerCost {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	eb := c.Precision.ElementBytes()
	lanes := c.Precision.MACsPerPE()
	lc := LayerCost{Name: d.Name, Kind: d.Kind, WeightBytes: d.Weights * eb}
	R, C := int64(c.Rows), int64(c.Cols)

	if d.Kind == nn.KindElementwise {
		// The modified array feeds one operand pair per row per cycle
		// (§4.3: an input line per row in the first column speeds up
		// element-wise ops by the number of rows); narrower elements pack
		// more lanes per row.
		n := int64(d.In.Elems())
		lc.MACs = n
		lc.Cycles = ceilDiv(n, R*lanes) + c.LayerOverhead
		lc.SRAMReadBytes = 2 * n * eb
		lc.SRAMWriteBytes = n * eb
		lc.Utilization = util(lc.MACs, lc.Cycles, R*C*lanes)
		return lc
	}

	g, ok := lowerGEMM(d)
	if !ok {
		panic(fmt.Sprintf("systolic: cannot lower layer %q (%v)", d.Name, d.Kind))
	}
	lc.MACs = g.M * g.K * g.N
	fill := (R + C - 2) * c.spadLatency()

	switch c.Dataflow {
	case OutputStationary:
		// OS semantics: each PE owns one output element and accumulates
		// its K-deep reduction temporally. Parallelism is therefore
		// bounded by the number of output elements (M·N) — this is the
		// §4.5 observation that the studied layers "require less than
		// 1024 multiply-accumulates per cycle for a feature vector",
		// which makes FC layers saturate at their output width.
		effP := minI64(R*C*lanes, g.M*g.N*lanes)
		compute := ceilDiv(lc.MACs, effP)
		// The reduction operands stream through the array at `lanes`
		// elements per lane per cycle, so a fold can never finish faster
		// than the longer of the reduction depth and the output-pixel
		// stream at that rate.
		floor := ceilDiv(maxI64(g.K, g.M), lanes)
		lc.Cycles = maxI64(compute, floor) + fill + c.LayerOverhead
		// Traffic: inputs re-read once per output-column fold; weights
		// once per output-row fold; outputs written once.
		fm := ceilDiv(g.M, R)
		fn := ceilDiv(g.N, C)
		lc.SRAMReadBytes = (g.M*g.K*fn + g.K*g.N*fm) * eb
		lc.SRAMWriteBytes = g.M * g.N * eb
	case WeightStationary:
		// WS semantics: the weight matrix is processed tile by tile — a
		// tile of R (reduction) × C (outputs) weights is pinned, the
		// activations stream through, and the array rotates to the next
		// tile. Each tile pays its row-by-row load (R), the activation
		// stream (M), and a fixed rotate/partial-sum spill overhead; tiles
		// do not pipeline, which is what makes the small chip-level array
		// compute-limited (§6.2).
		const tileOverhead = 8
		tk := ceilDiv(g.K, R*lanes)
		tn := ceilDiv(g.N, C)
		tiles := tk * tn
		lc.WeightLoadCycles = tiles * R
		lc.Cycles = tiles*(R+g.M+tileOverhead) + fill + c.LayerOverhead
		// Activations re-read per output tile; weights read once; partial
		// sums spill/refill once per reduction tile beyond the first.
		lc.SRAMReadBytes = (g.M*g.K*tn + g.K*g.N + g.M*g.N*(tk-1)) * eb
		lc.SRAMWriteBytes = (g.M*g.N + g.M*g.N*(tk-1)) * eb
	default:
		panic(fmt.Sprintf("systolic: unknown dataflow %d", c.Dataflow))
	}
	lc.Utilization = util(lc.MACs, lc.Cycles, R*C)
	return lc
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func util(macs, cycles, pes int64) float64 {
	if cycles <= 0 || pes <= 0 {
		return 0
	}
	u := float64(macs) / (float64(cycles) * float64(pes))
	return math.Min(u, 1)
}

// NetworkCost aggregates per-layer costs for one feature comparison.
type NetworkCost struct {
	Layers []LayerCost
	// Cycles is the end-to-end latency of one comparison in cycles
	// (layers execute sequentially on the single array).
	Cycles int64
	MACs   int64
	// SRAMReadBytes/SRAMWriteBytes are total scratchpad traffic.
	SRAMReadBytes  int64
	SRAMWriteBytes int64
	// WeightBytes is the whole model's parameter footprint.
	WeightBytes int64
	// WeightLoadCycles is the array weight-load portion of Cycles (WS).
	WeightLoadCycles int64
}

// NetworkCost models a full similarity comparison (all layers, one feature).
func (c Config) NetworkCost(plan []nn.LayerDims) NetworkCost {
	var nc NetworkCost
	for _, d := range plan {
		lc := c.LayerCost(d)
		nc.Layers = append(nc.Layers, lc)
		nc.Cycles += lc.Cycles
		nc.MACs += lc.MACs
		nc.SRAMReadBytes += lc.SRAMReadBytes
		nc.SRAMWriteBytes += lc.SRAMWriteBytes
		nc.WeightBytes += lc.WeightBytes
		nc.WeightLoadCycles += lc.WeightLoadCycles
	}
	return nc
}

// WeightsResident reports whether the model's weights fit in the scratchpad
// alongside a working buffer for activations (one quarter reserved).
func (c Config) WeightsResident(weightBytes int64) bool {
	return weightBytes <= c.ScratchpadBytes*3/4
}

// Aspect is one rows×cols shape of a PE budget.
type Aspect struct {
	Rows, Cols int
}

// Aspects enumerates the power-of-two array shapes that fit a power-of-two PE
// budget, the shape space searched in §4.5. Shapes using fewer PEs than the
// budget are included: a larger budget can always clock-gate surplus PEs, so
// the search space of budget 2P strictly contains that of budget P.
func Aspects(pes int) []Aspect {
	if pes <= 0 || pes&(pes-1) != 0 {
		panic(fmt.Sprintf("systolic: PE budget %d not a power of two", pes))
	}
	var out []Aspect
	for r := 1; r <= pes; r *= 2 {
		for c := 1; r*c <= pes; c *= 2 {
			out = append(out, Aspect{Rows: r, Cols: c})
		}
	}
	return out
}

// BestAspect searches all power-of-two aspect ratios of a PE budget for the
// one minimizing the network's comparison latency, reproducing the §4.5
// design-space methodology. Returns the winning config and its cost.
func BestAspect(pes int, freqHz float64, df Dataflow, overhead int64, plan []nn.LayerDims) (Config, NetworkCost) {
	var bestCfg Config
	var bestCost NetworkCost
	first := true
	for _, a := range Aspects(pes) {
		cfg := Config{Rows: a.Rows, Cols: a.Cols, FreqHz: freqHz, Dataflow: df, LayerOverhead: overhead}
		cost := cfg.NetworkCost(plan)
		if first || cost.Cycles < bestCost.Cycles {
			bestCfg, bestCost, first = cfg, cost, false
		}
	}
	return bestCfg, bestCost
}
