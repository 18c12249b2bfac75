package exp

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/report"
	"repro/internal/ssd"
	"repro/internal/viz"
	"repro/internal/workload"
)

// Fig11Row is one energy-efficiency bar: a DeepStore design's perf/Watt
// normalized to the Volta GPU of the traditional system.
type Fig11Row struct {
	App         string
	Level       accel.Level
	PerfPerWatt float64
}

// Figure11 computes the Fig. 11 normalized perf/Watt values from the
// Figure 8 measurements (they share the same runs).
func Figure11(rows []Fig8Row) []Fig11Row {
	var out []Fig11Row
	for _, r := range rows {
		for _, level := range accel.Levels() {
			out = append(out, Fig11Row{App: r.App, Level: level, PerfPerWatt: r.EnergyEff[level]})
		}
	}
	return out
}

// figure11Table returns the normalized perf/Watt table.
func figure11Table(rows []Fig11Row) report.Table {
	header := []string{"App", "SSD", "Channel", "Chip"}
	byApp := map[string]map[accel.Level]float64{}
	var order []string
	for _, r := range rows {
		if _, ok := byApp[r.App]; !ok {
			byApp[r.App] = map[accel.Level]float64{}
			order = append(order, r.App)
		}
		byApp[r.App][r.Level] = r.PerfPerWatt
	}
	var out [][]string
	for _, app := range order {
		m := byApp[app]
		out = append(out, []string{app, F(m[accel.LevelSSD]), F(m[accel.LevelChannel]), F(m[accel.LevelChip])})
	}
	return report.Table{Name: "fig11", Header: header, Rows: out}
}

func figure11Chart(rows []Fig11Row) string {
	var bars []viz.Bar
	for _, r := range rows {
		bars = append(bars, viz.Bar{Label: fmt.Sprintf("%s/%s", r.App, r.Level), Value: r.PerfPerWatt})
	}
	return viz.BarChart("Fig 11: perf/W vs Volta GPU", bars, 48)
}

// Fig12Row is one energy-breakdown bar: the compute/memory/flash shares of
// one application at one accelerator level.
type Fig12Row struct {
	App     string
	Level   accel.Level
	Compute float64
	Memory  float64
	Flash   float64
}

// Figure12 computes the Fig. 12 power-consumption breakdown by re-running
// the level scans and decomposing their activity energy.
func Figure12() ([]Fig12Row, error) {
	devCfg := ssd.DefaultConfig()
	var rows []Fig12Row
	for _, app := range workload.Apps() {
		for _, level := range accel.Levels() {
			out, err := RunScan(app, accel.SpecForLevel(level, devCfg), devCfg, workload.PaperSpec(app).Features)
			if err != nil {
				return nil, err
			}
			row := Fig12Row{App: app.Name, Level: level, Compute: math.NaN(), Memory: math.NaN(), Flash: math.NaN()}
			if !out.Unsupported {
				row.Compute, row.Memory, row.Flash = out.Energy.Fractions()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// figure12Table returns the percentage breakdown.
func figure12Table(rows []Fig12Row) report.Table {
	header := []string{"App", "Level", "Compute %", "Memory %", "Flash %"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App, r.Level.String(),
			pct(r.Compute), pct(r.Memory), pct(r.Flash),
		})
	}
	return report.Table{Name: "fig12", Header: header, Rows: out}
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "n/s"
	}
	return F(v * 100)
}
