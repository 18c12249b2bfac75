package exp

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/workload"
)

// Fig2Row is one Figure 2 bar: the GPU+SSD baseline's per-batch latency
// breakdown for one application, batch size, and GPU generation.
type Fig2Row struct {
	App        string
	GPU        string
	Batch      int
	ReadMs     float64
	MemcpyMs   float64
	ComputeMs  float64
	TotalMs    float64
	IOFraction float64
}

// Figure2 profiles every application across its batch-size sweep on both
// GPU generations, reproducing the §3 characterization: storage I/O is
// 56–90% of execution time and does not improve from Pascal to Volta.
func Figure2() []Fig2Row {
	var rows []Fig2Row
	for _, g := range []gpu.Model{gpu.Pascal(), gpu.Volta()} {
		cfg := baseline.DefaultConfig()
		cfg.GPU = g
		for _, a := range workload.Apps() {
			for _, b := range a.BatchSizes {
				bd := cfg.Batch(a, b)
				rows = append(rows, Fig2Row{
					App:        a.Name,
					GPU:        g.Name,
					Batch:      b,
					ReadMs:     bd.ReadSec * 1e3,
					MemcpyMs:   bd.MemcpySec * 1e3,
					ComputeMs:  bd.ComputeSec * 1e3,
					TotalMs:    bd.TotalSec() * 1e3,
					IOFraction: bd.IOFraction(),
				})
			}
		}
	}
	return rows
}

// figure2Table tabulates the breakdown.
func figure2Table(rows []Fig2Row) report.Table {
	header := []string{"App", "GPU", "Batch", "Read(ms)", "Memcpy(ms)", "Compute(ms)", "Total(ms)", "IO %"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App, r.GPU, fmt.Sprint(r.Batch),
			F(r.ReadMs), F(r.MemcpyMs), F(r.ComputeMs), F(r.TotalMs),
			fmt.Sprintf("%.0f", r.IOFraction*100),
		})
	}
	return report.Table{Name: "fig2", Header: header, Rows: out}
}
