package exp

import (
	"math"

	"repro/internal/accel"
	"repro/internal/report"
	"repro/internal/ssd"
	"repro/internal/systolic"
	"repro/internal/workload"
)

// Ablations for the design choices DESIGN.md calls out: the dataflow
// assignment per level (§4.5 picks OS for SSD/channel and WS for chip), the
// lockstep weight streaming, and the precision extension (§7).

// AblationDataflowRow compares a level's chosen dataflow against the
// alternative on one application.
type AblationDataflowRow struct {
	App      string
	Level    accel.Level
	Chosen   systolic.Dataflow
	ChosenS  float64 // scan seconds with the Table 3 dataflow
	SwappedS float64 // scan seconds with the dataflow swapped
	// Penalty is SwappedS/ChosenS: > 1 means the paper's choice wins.
	Penalty float64
}

// AblationDataflow swaps OS→WS at the channel level and measures the
// scan-time penalty, validating the §4.5 dataflow assignment. The chip
// level is excluded: its WS choice is dictated by channel-bus weight
// bandwidth ("maximizing the reuse of the weights and minimizing the
// bandwidth requirement across the channel bus", §4.5), a constraint the
// lockstep round model already enforces for either dataflow, so a pure
// compute-model swap there would not exercise the quantity that decided
// the design.
func AblationDataflow() ([]AblationDataflowRow, error) {
	devCfg := ssd.DefaultConfig()
	var rows []AblationDataflowRow
	spec := accel.SpecForLevel(accel.LevelChannel, devCfg)
	swappedSpec := spec
	if spec.Array.Dataflow == systolic.OutputStationary {
		swappedSpec.Array.Dataflow = systolic.WeightStationary
	} else {
		swappedSpec.Array.Dataflow = systolic.OutputStationary
	}
	for _, app := range workload.Apps() {
		features := workload.PaperSpec(app).Features
		chosen, err := RunScan(app, spec, devCfg, features)
		if err != nil {
			return nil, err
		}
		swapped, err := RunScan(app, swappedSpec, devCfg, features)
		if err != nil {
			return nil, err
		}
		row := AblationDataflowRow{
			App: app.Name, Level: spec.Level, Chosen: spec.Array.Dataflow,
		}
		if chosen.Unsupported || swapped.Unsupported {
			row.ChosenS, row.SwappedS, row.Penalty = math.NaN(), math.NaN(), math.NaN()
		} else {
			row.ChosenS = chosen.Seconds
			row.SwappedS = swapped.Seconds
			row.Penalty = swapped.Seconds / chosen.Seconds
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationPrecisionRow reports the precision extension's effect at the
// channel level: quantized features shrink both compute and — decisively for
// an in-storage design — flash traffic.
type AblationPrecisionRow struct {
	App           string
	Precision     systolic.Precision
	Seconds       float64
	SpeedupVsFP32 float64
	EnergyJ       float64
}

// AblationPrecision runs every application at FP32/FP16/INT8 on the
// channel-level design (the §7 quantization extension; accuracy effects are
// out of scope — the paper notes the optimization is orthogonal).
func AblationPrecision() ([]AblationPrecisionRow, error) {
	return ablationPrecision(1)
}

// ablationPrecision is AblationPrecision at a given accel.ScanRequest window.
func ablationPrecision(window int64) ([]AblationPrecisionRow, error) {
	devCfg := ssd.DefaultConfig()
	var rows []AblationPrecisionRow
	for _, app := range workload.Apps() {
		var fp32 float64
		for _, p := range []systolic.Precision{systolic.FP32, systolic.FP16, systolic.INT8} {
			spec := accel.SpecForLevel(accel.LevelChannel, devCfg)
			spec.Array.Precision = p
			// Quantized databases store quantized features.
			out, err := runScan(app, spec, devCfg, workload.PaperSpec(app).Features, window)
			if err != nil {
				return nil, err
			}
			if out.Unsupported {
				rows = append(rows, AblationPrecisionRow{App: app.Name, Precision: p,
					Seconds: math.NaN(), SpeedupVsFP32: math.NaN(), EnergyJ: math.NaN()})
				continue
			}
			if p == systolic.FP32 {
				fp32 = out.Seconds
			}
			rows = append(rows, AblationPrecisionRow{
				App: app.Name, Precision: p,
				Seconds:       out.Seconds,
				SpeedupVsFP32: fp32 / out.Seconds,
				EnergyJ:       DeepStoreEnergyJ(out),
			})
		}
	}
	return rows, nil
}

// AblationL2Row measures the §4.5 shared-L2 design choice: channel-level
// accelerators use the SSD-level 8 MB scratchpad as a second-level memory
// for weight broadcast; without it, every non-resident model streams from
// DRAM instead.
type AblationL2Row struct {
	App          string
	WithL2Sec    float64
	NoL2Sec      float64
	WithL2Source accel.WeightSource
	NoL2Source   accel.WeightSource
	// Penalty is NoL2Sec/WithL2Sec.
	Penalty float64
}

// AblationL2 disables the shared scratchpad (shrinks it below any model) and
// measures the channel-level scan penalty per application.
func AblationL2() ([]AblationL2Row, error) {
	withCfg := ssd.DefaultConfig()
	noCfg := ssd.DefaultConfig()
	// Too small to hold any studied model: L2 candidates fall to DRAM.
	noCfg.SharedScratchpadBytes = 64 << 10
	var rows []AblationL2Row
	for _, app := range workload.Apps() {
		features := workload.PaperSpec(app).Features
		with, err := RunScan(app, accel.SpecForLevel(accel.LevelChannel, withCfg), withCfg, features)
		if err != nil {
			return nil, err
		}
		without, err := RunScan(app, accel.SpecForLevel(accel.LevelChannel, noCfg), noCfg, features)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationL2Row{
			App:          app.Name,
			WithL2Sec:    with.Seconds,
			NoL2Sec:      without.Seconds,
			WithL2Source: with.Result.WeightSource,
			NoL2Source:   without.Result.WeightSource,
			Penalty:      without.Seconds / with.Seconds,
		})
	}
	return rows, nil
}

// ablationL2Table tabulates the L2 ablation.
func ablationL2Table(rows []AblationL2Row) report.Table {
	header := []string{"App", "With L2(s)", "Source", "No L2(s)", "Source", "Penalty x"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.App, F(r.WithL2Sec), r.WithL2Source.String(),
			F(r.NoL2Sec), r.NoL2Source.String(), F(r.Penalty)})
	}
	return report.Table{Name: "ablation-l2", Title: "Ablation — shared L2 scratchpad (§4.5)",
		Caption: "(c) shared second-level scratchpad (§4.5), channel level", Header: header, Rows: out}
}

// ablationDataflowTable tabulates the dataflow ablation.
func ablationDataflowTable(df []AblationDataflowRow) report.Table {
	header := []string{"App", "Level", "Chosen", "Chosen(s)", "Swapped(s)", "Penalty x"}
	var out [][]string
	for _, r := range df {
		out = append(out, []string{r.App, r.Level.String(), r.Chosen.String(),
			F(r.ChosenS), F(r.SwappedS), F(r.Penalty)})
	}
	return report.Table{Name: "ablation-dataflow", Title: "Ablation — dataflow assignment (§4.5)",
		Caption: "(a) dataflow assignment (§4.5)", Header: header, Rows: out}
}

// ablationPrecisionTable tabulates the precision ablation.
func ablationPrecisionTable(pr []AblationPrecisionRow) report.Table {
	header := []string{"App", "Precision", "Scan(s)", "vs FP32", "Energy(J)"}
	var out [][]string
	for _, r := range pr {
		out = append(out, []string{r.App, r.Precision.String(), F(r.Seconds),
			F(r.SpeedupVsFP32), F(r.EnergyJ)})
	}
	return report.Table{Name: "ablation-precision", Title: "Ablation — precision extension (§7)",
		Caption: "(b) precision extension (§7), channel level", Header: header, Rows: out}
}
