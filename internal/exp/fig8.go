package exp

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/report"
	"repro/internal/ssd"
	"repro/internal/viz"
	"repro/internal/workload"
)

// Fig8Row is one application's Figure 8 / Table 4 measurement: speedups of
// the wimpy-core software baseline and the three DeepStore accelerator
// levels over the GPU+SSD system, plus the Table 4 energy-efficiency
// improvements (perf/Watt vs the Volta GPU).
type Fig8Row struct {
	App string

	BaselineSec float64
	WimpySec    float64
	LevelSec    map[accel.Level]float64 // NaN when unsupported

	WimpySpeedup float64
	Speedup      map[accel.Level]float64 // Table 4 "Speedup" column
	EnergyEff    map[accel.Level]float64 // Table 4 "Energy Efficiency" column
}

// PaperTable4 holds the paper-reported Table 4 values for comparison in
// EXPERIMENTS.md. NaN marks the unsupported chip-level ReId entry.
var PaperTable4 = map[string]map[accel.Level][2]float64{ // [speedup, energy eff]
	"ReId":   {accel.LevelSSD: {0.1, 0.7}, accel.LevelChannel: {3.9, 17.1}, accel.LevelChip: {math.NaN(), math.NaN()}},
	"MIR":    {accel.LevelSSD: {0.3, 1.6}, accel.LevelChannel: {8.3, 28.0}, accel.LevelChip: {1.0, 2.6}},
	"ESTP":   {accel.LevelSSD: {0.6, 2.8}, accel.LevelChannel: {13.2, 38.6}, accel.LevelChip: {1.9, 3.2}},
	"TIR":    {accel.LevelSSD: {0.4, 2.1}, accel.LevelChannel: {10.7, 35.6}, accel.LevelChip: {1.5, 3.7}},
	"TextQA": {accel.LevelSSD: {0.4, 2.2}, accel.LevelChannel: {17.7, 78.6}, accel.LevelChip: {4.6, 13.7}},
}

// Figure8 runs the Figure 8 / Table 4 experiment: every application on the
// wimpy-core baseline and all three accelerator levels, against the GPU+SSD
// system, on the §6.1 databases. The scans run at the given
// accel.ScanRequest window: 0 simulates every batch, a positive window
// stops at the proven batch cycle; the rows are the same.
func Figure8(window int64) ([]Fig8Row, error) {
	devCfg := ssd.DefaultConfig()
	baseCfg := baseline.DefaultConfig()
	wimpy := baseline.DefaultWimpy()

	var rows []Fig8Row
	for _, app := range workload.Apps() {
		features := workload.PaperSpec(app).Features
		baseSec, _ := baseCfg.ScanTime(app, features, app.DefaultBatch)
		baseJ := baseCfg.EnergyJ(baseSec)
		row := Fig8Row{
			App:         app.Name,
			BaselineSec: baseSec,
			WimpySec:    wimpy.ScanTime(app, features),
			LevelSec:    map[accel.Level]float64{},
			Speedup:     map[accel.Level]float64{},
			EnergyEff:   map[accel.Level]float64{},
		}
		row.WimpySpeedup = baseSec / row.WimpySec
		for _, level := range accel.Levels() {
			out, err := runScan(app, accel.SpecForLevel(level, devCfg), devCfg, features, window)
			if err != nil {
				return nil, err
			}
			if out.Unsupported {
				row.LevelSec[level] = math.NaN()
				row.Speedup[level] = math.NaN()
				row.EnergyEff[level] = math.NaN()
				continue
			}
			row.LevelSec[level] = out.Seconds
			row.Speedup[level] = baseSec / out.Seconds
			// Energy efficiency = (perf/W)_deepstore / (perf/W)_gpu
			// = (baseJ / deepstoreJ) since perf ratio is speedup and
			// power = J/t: (1/J_ds)/(1/J_base).
			row.EnergyEff[level] = baseJ / DeepStoreEnergyJ(out)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DeepStore static power: the stock SSD's active draw plus accelerator
// leakage/clock-tree power (~30% of the 55 W budget), charged for the whole
// scan on top of the activity-based dynamic energy.
const (
	ssdActivePowerW   = 12.0
	accelStaticPowerW = 16.5
)

// DeepStoreEnergyJ converts a scan outcome to total Joules: dynamic activity
// energy plus static power over the scan duration.
func DeepStoreEnergyJ(out ScanOutcome) float64 {
	return out.Energy.Total() + out.Seconds*(ssdActivePowerW+accelStaticPowerW)
}

// figure8Table tabulates the experiment.
func figure8Table(rows []Fig8Row) report.Table {
	header := []string{"App", "Base(s)", "Wimpy x", "SSD x", "Chan x", "Chip x", "SSD E", "Chan E", "Chip E"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App,
			F(r.BaselineSec),
			F(r.WimpySpeedup),
			F(r.Speedup[accel.LevelSSD]),
			F(r.Speedup[accel.LevelChannel]),
			F(r.Speedup[accel.LevelChip]),
			F(r.EnergyEff[accel.LevelSSD]),
			F(r.EnergyEff[accel.LevelChannel]),
			F(r.EnergyEff[accel.LevelChip]),
		})
	}
	return report.Table{Name: "fig8", Header: header, Rows: out}
}

func figure8Chart(rows []Fig8Row) string {
	var bars []viz.Bar
	for _, r := range rows {
		for _, lv := range accel.Levels() {
			bars = append(bars, viz.Bar{Label: fmt.Sprintf("%s/%s", r.App, lv), Value: r.Speedup[lv]})
		}
	}
	return viz.BarChart("Fig 8: speedup over GPU+SSD", bars, 48)
}
