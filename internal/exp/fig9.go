package exp

import (
	"math"

	"repro/internal/accel"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// Fig9Row is one flash-latency sensitivity point: a system's speedup at the
// given flash read latency, normalized to its own performance at 53 µs.
type Fig9Row struct {
	System  string // "Traditional", "SSD", "Channel", "Chip"
	App     string
	Ratio   string // latency ratio label, e.g. "1:4"
	Latency sim.Duration
	Speedup float64
}

// fig9Ratios are the Fig. 9 x-axis points: 1:8 .. 4:1 of the 53 µs baseline.
var fig9Ratios = []struct {
	label  string
	factor float64
}{
	{"1:8", 1.0 / 8}, {"1:4", 1.0 / 4}, {"1:2", 1.0 / 2},
	{"1:1", 1}, {"2:1", 2}, {"4:1", 4},
}

// Figure9 sweeps the flash array read latency from ~7 µs to 212 µs for the
// three DeepStore levels. The traditional system is external-bandwidth
// bound, so its speedup is 1.0 at every point by construction (§6.3).
func Figure9() ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, app := range workload.Apps() {
		// Traditional: flash latency does not appear in its envelope.
		for _, r := range fig9Ratios {
			rows = append(rows, Fig9Row{
				System: "Traditional", App: app.Name, Ratio: r.label,
				Latency: sim.Duration(float64(53*sim.Microsecond) * r.factor),
				Speedup: 1.0,
			})
		}
		for _, level := range accel.Levels() {
			base := math.NaN()
			for _, r := range fig9Ratios {
				cfg := ssd.DefaultConfig()
				cfg.Timing.ReadLatency = sim.Duration(float64(53*sim.Microsecond) * r.factor)
				out, err := RunScan(app, accel.SpecForLevel(level, cfg), cfg, workload.PaperSpec(app).Features)
				if err != nil {
					return nil, err
				}
				row := Fig9Row{
					System: level.String(), App: app.Name, Ratio: r.label,
					Latency: cfg.Timing.ReadLatency,
				}
				if out.Unsupported {
					row.Speedup = math.NaN()
				} else {
					if r.label == "1:1" {
						base = out.Seconds
					}
					row.Speedup = out.Seconds // filled below once base known
				}
				rows = append(rows, row)
			}
			// Normalize this level/app block to its 1:1 point.
			for i := len(rows) - len(fig9Ratios); i < len(rows); i++ {
				if !math.IsNaN(rows[i].Speedup) {
					rows[i].Speedup = base / rows[i].Speedup
				}
			}
		}
	}
	return rows, nil
}

// figure9Table returns one line per system/app with speedups across ratios.
func figure9Table(rows []Fig9Row) report.Table {
	header := []string{"System", "App"}
	for _, r := range fig9Ratios {
		header = append(header, r.label)
	}
	// Group rows by (system, app) preserving order.
	type key struct{ sys, app string }
	order := []key{}
	byKey := map[key][]float64{}
	for _, r := range rows {
		k := key{r.System, r.App}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], r.Speedup)
	}
	var out [][]string
	for _, k := range order {
		cells := []string{k.sys, k.app}
		for _, v := range byKey[k] {
			cells = append(cells, F(v))
		}
		out = append(out, cells)
	}
	return report.Table{Name: "fig9", Header: header, Rows: out}
}
