package exp

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/workload"
)

// Table1Row reproduces one row of Table 1 from the reconstructed model zoo.
type Table1Row struct {
	App         string
	Type        string
	FeatureKB   float64
	Conv        int
	FC          int
	EW          int
	FLOPs       float64
	WeightMB    float64
	Dataset     string
	PaperFLOPs  float64
	PaperWeight float64
}

// Table1 characterizes the five applications (feature size, layer counts,
// FLOPs, weight size) alongside the paper-reported values.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, a := range workload.Apps() {
		conv, fc, ew := a.SCN.CountKinds()
		rows = append(rows, Table1Row{
			App:         a.Name,
			Type:        a.Type.String(),
			FeatureKB:   float64(a.FeatureBytes()) / 1024,
			Conv:        conv,
			FC:          fc,
			EW:          ew,
			FLOPs:       float64(a.SCN.FLOPsPerComparison()),
			WeightMB:    float64(a.SCN.WeightBytes()) / 1e6,
			Dataset:     a.Paper.Dataset,
			PaperFLOPs:  a.Paper.TotalFLOPs,
			PaperWeight: a.Paper.WeightBytes / 1e6,
		})
	}
	return rows
}

// table1Table tabulates the reproduction.
func table1Table(rows []Table1Row) report.Table {
	header := []string{"App", "Type", "Feature(KB)", "CONV", "FC", "EW", "FLOPs(M)", "Weights(MB)", "Paper FLOPs(M)", "Paper W(MB)", "Dataset"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.App, r.Type, F(r.FeatureKB),
			fmt.Sprint(r.Conv), fmt.Sprint(r.FC), fmt.Sprint(r.EW),
			F(r.FLOPs / 1e6), F(r.WeightMB),
			F(r.PaperFLOPs / 1e6), F(r.PaperWeight),
			r.Dataset,
		})
	}
	return report.Table{Name: "table1", Header: header, Rows: out}
}
