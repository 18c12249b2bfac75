package exp

import (
	"fmt"
	"math"

	"repro/internal/dse"
	"repro/internal/report"
	"repro/internal/viz"
)

// Figure6 sweeps systolic-array sizes for the largest FC and conv layers
// (best aspect ratio per point, infinite memory bandwidth), reproducing the
// §4.5 saturation study.
func Figure6() []dse.Fig6Point {
	return dse.Figure6()
}

// Figure6Table tabulates the sweep; the note names the saturation points.
func Figure6Table(points []dse.Fig6Point) report.Table {
	header := []string{"PEs", "FC speedup", "Conv speedup", "FC aspect", "Conv aspect"}
	var out [][]string
	for _, p := range points {
		out = append(out, []string{
			fmt.Sprint(p.PEs),
			F(p.FCSpeedup),
			F(p.ConvSpeedup),
			fmt.Sprintf("%dx%d", p.FCBestAspect.Rows, p.FCBestAspect.Cols),
			fmt.Sprintf("%dx%d", p.ConvBestAspect.Rows, p.ConvBestAspect.Cols),
		})
	}
	return report.Table{Name: "fig6", Header: header, Rows: out,
		Note: fmt.Sprintf("\nFC saturates at %d PEs; conv at %d PEs (paper: 512 and 1024).\n",
			dse.SaturationPE(points, false, 0.05), dse.SaturationPE(points, true, 0.05))}
}

func figure6Chart(points []dse.Fig6Point) string {
	fc := viz.Series{Name: "Fully Connected"}
	cv := viz.Series{Name: "Convolution"}
	for _, p := range points {
		x := math.Log2(float64(p.PEs))
		fc.Points = append(fc.Points, viz.Point{X: x, Y: p.FCSpeedup})
		cv.Points = append(cv.Points, viz.Point{X: x, Y: p.ConvSpeedup})
	}
	return viz.LineChart("Fig 6: speedup vs log2(PEs), best aspect per point",
		[]viz.Series{fc, cv}, 64, 16)
}
