// Command deepstore-bench regenerates the paper's tables and figures from
// the simulator. Run with -exp all (default) or a comma-separated subset,
// and pick an output format for downstream plotting:
//
//	deepstore-bench -exp table1,fig8
//	deepstore-bench -exp fig8 -window 5000
//	deepstore-bench -exp fig13 -format csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/accel"
	"repro/internal/exp"
	"repro/internal/report"
	"repro/internal/viz"
)

// lastFaultsRows captures the fault sweep's rows so main can emit the
// -faultsjson artifact without running the study twice.
var lastFaultsRows []exp.FaultsRow

// lastBreakdown captures the breakdown experiment's result so main can emit
// the -metricsjson / -tracejson artifacts from the same replay.
var lastBreakdown *exp.BreakdownResult

// lastMQRows captures the multi-query study for -mqjson.
var lastMQRows []exp.MQRow

// lastPruneRows captures the exact-pruning study for -prunejson.
var lastPruneRows []exp.PruneRow

// lastQuantRows captures the quantized-scoring study for -quantjson.
var lastQuantRows []exp.QuantRow

// lastServeRows captures the multi-tenant serving study for -servejson.
var lastServeRows []exp.ServeRow

// lastRebalanceRows captures the online-rebalance study for -rebalancejson.
var lastRebalanceRows []exp.RebalanceRow

// lastQHistRows captures the query-history admission study for -qhistjson.
var lastQHistRows []exp.QHistRow

// experiment couples an id with the code that produces its tables, and an
// optional terminal-chart rendering for the sweep/comparison figures.
type experiment struct {
	name  string
	run   func(window int64) (tables []report.Table, text string, err error)
	chart func(window int64) (string, error)
}

func experiments() []experiment {
	return []experiment{
		{name: "table1", run: func(int64) ([]report.Table, string, error) {
			rows := exp.Table1()
			h, c := exp.CellsTable1(rows)
			return []report.Table{{Name: "table1", Header: h, Rows: c}}, exp.FormatTable1(rows), nil
		}},
		{name: "fig2", run: func(int64) ([]report.Table, string, error) {
			rows := exp.Figure2()
			h, c := exp.CellsFigure2(rows)
			return []report.Table{{Name: "fig2", Header: h, Rows: c}}, exp.FormatFigure2(rows), nil
		}},
		{name: "fig6", run: func(int64) ([]report.Table, string, error) {
			points := exp.Figure6()
			h, c := exp.CellsFigure6(points)
			return []report.Table{{Name: "fig6", Header: h, Rows: c}}, exp.FormatFigure6(points), nil
		}, chart: func(int64) (string, error) {
			points := exp.Figure6()
			fc := viz.Series{Name: "Fully Connected"}
			cv := viz.Series{Name: "Convolution"}
			for _, p := range points {
				x := math.Log2(float64(p.PEs))
				fc.Points = append(fc.Points, viz.Point{X: x, Y: p.FCSpeedup})
				cv.Points = append(cv.Points, viz.Point{X: x, Y: p.ConvSpeedup})
			}
			return viz.LineChart("Fig 6: speedup vs log2(PEs), best aspect per point",
				[]viz.Series{fc, cv}, 64, 16), nil
		}},
		{name: "table3", run: func(int64) ([]report.Table, string, error) {
			rows := exp.Table3()
			h, c := exp.CellsTable3(rows)
			return []report.Table{{Name: "table3", Header: h, Rows: c}}, exp.FormatTable3(rows), nil
		}},
		{name: "fig8", run: func(w int64) ([]report.Table, string, error) {
			rows, err := exp.Figure8(w)
			if err != nil {
				return nil, "", err
			}
			h, c := exp.CellsFigure8(rows)
			return []report.Table{{Name: "fig8", Header: h, Rows: c}}, exp.FormatFigure8(rows), nil
		}, chart: func(w int64) (string, error) {
			rows, err := exp.Figure8(w)
			if err != nil {
				return "", err
			}
			var bars []viz.Bar
			for _, r := range rows {
				for _, lv := range accel.Levels() {
					bars = append(bars, viz.Bar{
						Label: fmt.Sprintf("%s/%s", r.App, lv),
						Value: r.Speedup[lv],
					})
				}
			}
			return viz.BarChart("Fig 8: speedup over GPU+SSD", bars, 48), nil
		}},
		{name: "fig9", run: func(w int64) ([]report.Table, string, error) {
			rows, err := exp.Figure9(w)
			if err != nil {
				return nil, "", err
			}
			h, c := exp.CellsFigure9(rows)
			return []report.Table{{Name: "fig9", Header: h, Rows: c}}, exp.FormatFigure9(rows), nil
		}},
		{name: "fig10", run: func(w int64) ([]report.Table, string, error) {
			a, err := exp.Figure10a(w)
			if err != nil {
				return nil, "", err
			}
			b, err := exp.Figure10b(w)
			if err != nil {
				return nil, "", err
			}
			ha, ca := exp.CellsFigure10a(a)
			hb, cb := exp.CellsFigure10b(b)
			return []report.Table{
				{Name: "fig10a", Header: ha, Rows: ca},
				{Name: "fig10b", Header: hb, Rows: cb},
			}, exp.FormatFigure10(a, b), nil
		}},
		{name: "fig11", run: func(w int64) ([]report.Table, string, error) {
			rows8, err := exp.Figure8(w)
			if err != nil {
				return nil, "", err
			}
			rows := exp.Figure11(rows8)
			h, c := exp.CellsFigure11(rows)
			return []report.Table{{Name: "fig11", Header: h, Rows: c}}, exp.FormatFigure11(rows), nil
		}, chart: func(w int64) (string, error) {
			rows8, err := exp.Figure8(w)
			if err != nil {
				return "", err
			}
			var bars []viz.Bar
			for _, r := range exp.Figure11(rows8) {
				bars = append(bars, viz.Bar{
					Label: fmt.Sprintf("%s/%s", r.App, r.Level),
					Value: r.PerfPerWatt,
				})
			}
			return viz.BarChart("Fig 11: perf/W vs Volta GPU", bars, 48), nil
		}},
		{name: "fig12", run: func(w int64) ([]report.Table, string, error) {
			rows, err := exp.Figure12(w)
			if err != nil {
				return nil, "", err
			}
			h, c := exp.CellsFigure12(rows)
			return []report.Table{{Name: "fig12", Header: h, Rows: c}}, exp.FormatFigure12(rows), nil
		}},
		{name: "fig13", run: func(w int64) ([]report.Table, string, error) {
			rows, err := exp.Figure13(w, exp.DefaultQCStudy())
			if err != nil {
				return nil, "", err
			}
			h, c := exp.CellsFigure13(rows)
			return []report.Table{{Name: "fig13", Header: h, Rows: c}}, exp.FormatFigure13(rows), nil
		}, chart: func(w int64) (string, error) {
			rows, err := exp.Figure13(w, exp.DefaultQCStudy())
			if err != nil {
				return "", err
			}
			byDist := map[string]*viz.Series{}
			var order []string
			for _, r := range rows {
				s, ok := byDist[r.Dist]
				if !ok {
					s = &viz.Series{Name: "DeepStore+QC " + r.Dist}
					byDist[r.Dist] = s
					order = append(order, r.Dist)
				}
				s.Points = append(s.Points, viz.Point{X: float64(r.ThresholdPct), Y: r.DeepStoreQC})
			}
			var series []viz.Series
			for _, d := range order {
				series = append(series, *byDist[d])
			}
			return viz.LineChart("Fig 13: DeepStore+QC speedup vs error threshold (%)",
				series, 64, 14), nil
		}},
		{name: "fig14", run: func(int64) ([]report.Table, string, error) {
			rows := exp.Figure14(exp.DefaultQCStudy())
			h, c := exp.CellsFigure14(rows)
			return []report.Table{{Name: "fig14", Header: h, Rows: c}}, exp.FormatFigure14(rows), nil
		}, chart: func(int64) (string, error) {
			rows := exp.Figure14(exp.DefaultQCStudy())
			byDist := map[string]*viz.Series{}
			var order []string
			for _, r := range rows {
				s, ok := byDist[r.Dist]
				if !ok {
					s = &viz.Series{Name: r.Dist}
					byDist[r.Dist] = s
					order = append(order, r.Dist)
				}
				s.Points = append(s.Points, viz.Point{X: float64(r.Entries), Y: r.MissRate * 100})
			}
			var series []viz.Series
			for _, d := range order {
				series = append(series, *byDist[d])
			}
			return viz.LineChart("Fig 14: miss rate (%) vs cache entries", series, 64, 14), nil
		}},
		{name: "interference", run: func(int64) ([]report.Table, string, error) {
			var rows []exp.InterferenceResult
			for _, app := range []string{"MIR", "TIR", "TextQA"} {
				r, err := exp.Interference(app, accel.LevelChannel, 64_000, 16_000)
				if err != nil {
					return nil, "", err
				}
				rows = append(rows, r)
			}
			h, c := exp.CellsInterference(rows)
			return []report.Table{{Name: "interference", Header: h, Rows: c}},
				exp.FormatInterference(rows), nil
		}},
		{name: "reorg", run: func(int64) ([]report.Table, string, error) {
			rows, err := exp.ReorgStudy(exp.DefaultReorg())
			if err != nil {
				return nil, "", err
			}
			h, c := exp.CellsReorg(rows)
			return []report.Table{{Name: "reorg", Header: h, Rows: c}},
				exp.FormatReorg(rows), nil
		}},
		{name: "throughput", run: func(w int64) ([]report.Table, string, error) {
			rows, err := exp.Throughput(w, 0.4)
			if err != nil {
				return nil, "", err
			}
			h, c := exp.CellsThroughput(rows)
			return []report.Table{{Name: "throughput", Header: h, Rows: c}},
				exp.FormatThroughput(rows), nil
		}},
		{name: "mq", run: func(int64) ([]report.Table, string, error) {
			rows, err := exp.MultiQueryBench(exp.DefaultMQ())
			if err != nil {
				return nil, "", err
			}
			lastMQRows = rows
			h, c := exp.CellsMQ(rows)
			return []report.Table{{Name: "mq", Header: h, Rows: c}},
				exp.FormatMQ(rows), nil
		}},
		{name: "prune", run: func(int64) ([]report.Table, string, error) {
			rows, err := exp.PruneSweep(exp.DefaultPrune())
			if err != nil {
				return nil, "", err
			}
			lastPruneRows = rows
			h, c := exp.CellsPrune(rows)
			return []report.Table{{Name: "prune", Header: h, Rows: c}},
				exp.FormatPrune(rows), nil
		}},
		{name: "quant", run: func(int64) ([]report.Table, string, error) {
			rows, err := exp.QuantSweep(exp.DefaultQuant())
			if err != nil {
				return nil, "", err
			}
			lastQuantRows = rows
			margins, err := exp.QuantMarginRecall(exp.DefaultQuant(), nil)
			if err != nil {
				return nil, "", err
			}
			h, c := exp.CellsQuant(rows)
			hm, cm := exp.CellsQuantMargin(margins)
			return []report.Table{
					{Name: "quant", Header: h, Rows: c},
					{Name: "quant-margin", Header: hm, Rows: cm},
				}, exp.FormatQuant(rows) + "\n" + exp.FormatQuantMargin(margins),
				nil
		}},
		{name: "serve", run: func(int64) ([]report.Table, string, error) {
			rows, err := exp.ServeBench(exp.DefaultServe())
			if err != nil {
				return nil, "", err
			}
			lastServeRows = rows
			h, c := exp.CellsServe(rows)
			return []report.Table{{Name: "serve", Header: h, Rows: c}},
				exp.FormatServe(rows), nil
		}},
		{name: "rebalance", run: func(int64) ([]report.Table, string, error) {
			rows, err := exp.RebalanceBench(exp.DefaultRebalance())
			if err != nil {
				return nil, "", err
			}
			lastRebalanceRows = rows
			h, c := exp.CellsRebalance(rows)
			return []report.Table{{Name: "rebalance", Header: h, Rows: c}},
				exp.FormatRebalance(rows), nil
		}},
		{name: "qhist", run: func(int64) ([]report.Table, string, error) {
			rows, err := exp.QHistSweep(exp.DefaultQHist())
			if err != nil {
				return nil, "", err
			}
			lastQHistRows = rows
			h, c := exp.CellsQHist(rows)
			return []report.Table{{Name: "qhist", Header: h, Rows: c}},
				exp.FormatQHist(rows), nil
		}},
		{name: "faults", run: func(int64) ([]report.Table, string, error) {
			rows, err := exp.FaultSweep(exp.DefaultFaults())
			if err != nil {
				return nil, "", err
			}
			lastFaultsRows = rows
			h, c := exp.CellsFaults(rows)
			return []report.Table{{Name: "faults", Header: h, Rows: c}},
				exp.FormatFaults(rows), nil
		}},
		{name: "breakdown", run: func(int64) ([]report.Table, string, error) {
			r, err := exp.LatencyBreakdown(exp.DefaultBreakdown())
			if err != nil {
				return nil, "", err
			}
			lastBreakdown = &r
			h, c := exp.CellsBreakdown(r)
			return []report.Table{{Name: "breakdown", Header: h, Rows: c}},
				exp.FormatBreakdown(r), nil
		}},
		{name: "recall", run: func(int64) ([]report.Table, string, error) {
			rows, err := exp.QCRecall(exp.DefaultRecall())
			if err != nil {
				return nil, "", err
			}
			h, c := exp.CellsRecall(rows)
			return []report.Table{{Name: "recall", Header: h, Rows: c}},
				exp.FormatRecall(rows), nil
		}},
		{name: "ablations", run: func(w int64) ([]report.Table, string, error) {
			df, err := exp.AblationDataflow(w)
			if err != nil {
				return nil, "", err
			}
			pr, err := exp.AblationPrecision(w)
			if err != nil {
				return nil, "", err
			}
			l2, err := exp.AblationL2(w)
			if err != nil {
				return nil, "", err
			}
			hd, cd := exp.CellsAblationDataflow(df)
			hp, cp := exp.CellsAblationPrecision(pr)
			hl, cl := exp.CellsAblationL2(l2)
			return []report.Table{
					{Name: "ablation-dataflow", Header: hd, Rows: cd},
					{Name: "ablation-precision", Header: hp, Rows: cp},
					{Name: "ablation-l2", Header: hl, Rows: cl},
				}, exp.FormatAblations(df, pr) + "\n" + exp.FormatAblationL2(l2),
				nil
		}},
	}
}

func main() {
	expFlag := flag.String("exp", "all", "experiments to run (comma separated): table1,fig2,fig6,table3,fig8,fig9,fig10,fig11,fig12,fig13,fig14,interference,reorg,throughput,mq,prune,quant,serve,rebalance,qhist,faults,breakdown,recall,ablations")
	window := flag.Int64("window", exp.DefaultWindow, "features per accelerator simulated before extrapolation (0 = exact)")
	formatFlag := flag.String("format", "text", "output format: text, csv, markdown, chart")
	faultsJSON := flag.String("faultsjson", "", "write the fault sweep's rows as JSON to this file (e.g. BENCH_faults.json); implies running faults")
	mqJSON := flag.String("mqjson", "", "write the multi-query study's rows as JSON to this file (e.g. BENCH_mq.json); implies running mq")
	pruneJSON := flag.String("prunejson", "", "write the exact-pruning study's rows as JSON to this file (e.g. BENCH_prune.json); implies running prune")
	quantJSON := flag.String("quantjson", "", "write the quantized-scoring study's rows as JSON to this file (e.g. BENCH_quant.json); implies running quant")
	serveJSON := flag.String("servejson", "", "write the multi-tenant serving study's rows as JSON to this file (e.g. BENCH_serve.json); implies running serve")
	rebalanceJSON := flag.String("rebalancejson", "", "write the online-rebalance study's rows as JSON to this file (e.g. BENCH_rebalance.json); implies running rebalance")
	qhistJSON := flag.String("qhistjson", "", "write the query-history admission study's rows as JSON to this file (e.g. BENCH_qhist.json); implies running qhist")
	metricsJSON := flag.String("metricsjson", "", "write the breakdown replay's metrics snapshot as JSON to this file; implies running breakdown")
	traceJSON := flag.String("tracejson", "", "write the breakdown replay's span trace in Chrome trace-event format to this file (load in chrome://tracing or Perfetto); implies running breakdown")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (after the experiments) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepstore-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "deepstore-bench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "deepstore-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "deepstore-bench: %v\n", err)
			}
		}()
	}

	chartMode := *formatFlag == "chart"
	var format report.Format
	if !chartMode {
		var err error
		format, err = report.ParseFormat(*formatFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepstore-bench: %v\n", err)
			os.Exit(1)
		}
	}

	want := map[string]bool{}
	if *expFlag == "all" {
		for _, e := range experiments() {
			want[e.name] = true
		}
	} else {
		for _, n := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}
	if *faultsJSON != "" {
		want["faults"] = true
	}
	if *mqJSON != "" {
		want["mq"] = true
	}
	if *pruneJSON != "" {
		want["prune"] = true
	}
	if *quantJSON != "" {
		want["quant"] = true
	}
	if *serveJSON != "" {
		want["serve"] = true
	}
	if *rebalanceJSON != "" {
		want["rebalance"] = true
	}
	if *qhistJSON != "" {
		want["qhist"] = true
	}
	if *metricsJSON != "" || *traceJSON != "" {
		want["breakdown"] = true
	}

	ran := 0
	for _, e := range experiments() {
		if !want[e.name] {
			continue
		}
		if chartMode {
			if e.chart == nil {
				continue // only the sweep/comparison figures have charts
			}
			out, err := e.chart(*window)
			if err != nil {
				fmt.Fprintf(os.Stderr, "deepstore-bench: %s: %v\n", e.name, err)
				os.Exit(1)
			}
			fmt.Printf("=== %s ===\n%s\n", e.name, out)
			ran++
			continue
		}
		tables, text, err := e.run(*window)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepstore-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		switch format {
		case report.FormatText:
			fmt.Printf("=== %s ===\n%s\n", e.name, text)
		default:
			for _, t := range tables {
				out, err := report.Render(t, format, func() string { return text })
				if err != nil {
					fmt.Fprintf(os.Stderr, "deepstore-bench: %s: %v\n", t.Name, err)
					os.Exit(1)
				}
				fmt.Printf("=== %s ===\n%s\n", t.Name, out)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "deepstore-bench: no runnable experiments in %q\n", *expFlag)
		os.Exit(1)
	}
	writeJSON := func(path string, rows any) {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepstore-bench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "deepstore-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "deepstore-bench: wrote %s\n", path)
	}
	if *faultsJSON != "" && lastFaultsRows != nil {
		writeJSON(*faultsJSON, lastFaultsRows)
	}
	if *mqJSON != "" && lastMQRows != nil {
		writeJSON(*mqJSON, lastMQRows)
	}
	if *pruneJSON != "" && lastPruneRows != nil {
		writeJSON(*pruneJSON, lastPruneRows)
	}
	if *quantJSON != "" && lastQuantRows != nil {
		writeJSON(*quantJSON, lastQuantRows)
	}
	if *serveJSON != "" && lastServeRows != nil {
		writeJSON(*serveJSON, lastServeRows)
	}
	if *rebalanceJSON != "" && lastRebalanceRows != nil {
		writeJSON(*rebalanceJSON, lastRebalanceRows)
	}
	if *qhistJSON != "" && lastQHistRows != nil {
		writeJSON(*qhistJSON, lastQHistRows)
	}
	if *metricsJSON != "" && lastBreakdown != nil {
		writeJSON(*metricsJSON, lastBreakdown.Snapshot)
	}
	if *traceJSON != "" && lastBreakdown != nil {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepstore-bench: %v\n", err)
			os.Exit(1)
		}
		if err := lastBreakdown.Engine.WriteChromeTrace(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "deepstore-bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "deepstore-bench: wrote %s\n", *traceJSON)
	}
}
