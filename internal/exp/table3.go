package exp

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/dse"
	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/ssd"
	"repro/internal/systolic"
)

// Table3Row is one accelerator configuration: the Table 3 design the paper
// fixes, alongside the configuration our design-space exploration selects
// under the same budgets.
type Table3Row struct {
	Level      accel.Level
	Paper      systolic.Config
	PaperPower float64
	PaperArea  float64
	DSE        dse.Candidate
	Candidates []dse.Candidate // every design the exploration scored
}

// Table3 reports the Table 3 configurations and re-derives them with the
// §4.5 exploration.
func Table3() []Table3Row {
	cfg := ssd.DefaultConfig()
	var rows []Table3Row
	for _, level := range accel.Levels() {
		spec := accel.SpecForLevel(level, cfg)
		cons := dse.Constraints{
			PowerBudgetW:          spec.PowerBudgetW,
			DRAMBandwidth:         cfg.DRAMBandwidth,
			FlashChannelBandwidth: cfg.Timing.ChannelBandwidth,
			SRAMKind:              spec.SRAMKind,
			ScratchpadBytes:       spec.Array.ScratchpadBytes,
		}
		if level == accel.LevelSSD {
			cons.SRAMKind = energy.ITRSHP
		}
		best, all := dse.Explore(spec.Array.FreqHz, spec.Array.Dataflow, cons)
		rows = append(rows, Table3Row{
			Level:      level,
			Paper:      spec.Array,
			PaperPower: spec.PowerBudgetW,
			PaperArea:  spec.AreaMM2,
			DSE:        best,
			Candidates: all,
		})
	}
	return rows
}

// table3Table tabulates the configurations.
func table3Table(rows []Table3Row) report.Table {
	header := []string{"Level", "Config (Table 3)", "Freq", "Scratchpad", "Budget(W)", "Area(mm2)", "DSE choice", "DSE peak(W)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Level.String(),
			fmt.Sprintf("%dx%d %s", r.Paper.Rows, r.Paper.Cols, r.Paper.Dataflow),
			fmt.Sprintf("%.0fMHz", r.Paper.FreqHz/1e6),
			fmt.Sprintf("%dKB", r.Paper.ScratchpadBytes>>10),
			F(r.PaperPower),
			F(r.PaperArea),
			fmt.Sprintf("%dx%d", r.DSE.Config.Rows, r.DSE.Config.Cols),
			F(r.DSE.PowerW),
		})
	}
	return report.Table{Name: "table3", Header: header, Rows: out}
}
