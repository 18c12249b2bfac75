package exp

import (
	"encoding/json"

	"repro/internal/accel"
	"repro/internal/report"
)

// Artifact is one machine-readable output of a study. deepstore-bench
// -json DIR writes it to DIR/BENCH_<Name>.json.
type Artifact struct {
	Name string
	Data []byte
}

// Result is what one run of a study produced.
type Result struct {
	Tables []report.Table
	// Chart is a terminal rendering of the same rows ("" when the study
	// has none).
	Chart     string
	Artifacts []Artifact
}

// Study is one experiment of the evaluation. Run regenerates it.
type Study struct {
	Name  string // the id -exp selects
	Title string // heading of the study's section in the regenerated report
	Run   func() (Result, error)
}

// tables is the Result of a study that only tabulates.
func tables(ts ...report.Table) Result { return Result{Tables: ts} }

// indentJSON is the encoding of every checked-in BENCH_*.json.
func indentJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	return append(data, '\n'), err
}

// withRows is the Result of a study whose typed rows are also its artifact,
// named after the table.
func withRows(t report.Table, rows any) (Result, error) {
	data, err := indentJSON(rows)
	if err != nil {
		return Result{}, err
	}
	return Result{Tables: []report.Table{t}, Artifacts: []Artifact{{Name: t.Name, Data: data}}}, nil
}

// tabulated and archived adapt a measurement's (rows, error) return to
// Study.Run's: the rows in one table, and for archived also as the artifact.
func tabulated[R any](table func(R) report.Table) func(R, error) (Result, error) {
	return func(rows R, err error) (Result, error) {
		if err != nil {
			return Result{}, err
		}
		return tables(table(rows)), nil
	}
}

func archived[R any](table func(R) report.Table) func(R, error) (Result, error) {
	return func(rows R, err error) (Result, error) {
		if err != nil {
			return Result{}, err
		}
		return withRows(table(rows), rows)
	}
}

// Studies returns every experiment in presentation order: the paper's §6
// evaluation, then the extension studies and ablations. This is the only
// enumeration of the evaluation; deepstore-bench and deepstore-report loop
// over it.
func Studies() []Study {
	return []Study{
		{"table1", "Table 1 — application characteristics", func() (Result, error) {
			return tables(table1Table(Table1())), nil
		}},
		{"fig2", "Figure 2 — GPU+SSD baseline breakdown", func() (Result, error) {
			return tables(figure2Table(Figure2())), nil
		}},
		{"fig6", "Figure 6 — systolic array scaling", func() (Result, error) {
			points := Figure6()
			return Result{Tables: []report.Table{Figure6Table(points)}, Chart: figure6Chart(points)}, nil
		}},
		{"table3", "Table 3 — accelerator configurations", func() (Result, error) {
			return tables(table3Table(Table3())), nil
		}},
		{"fig8", "Figure 8 / Table 4 — speedup and energy efficiency", func() (Result, error) {
			rows, err := Figure8(1)
			if err != nil {
				return Result{}, err
			}
			return Result{Tables: []report.Table{figure8Table(rows)}, Chart: figure8Chart(rows)}, nil
		}},
		{"fig9", "Figure 9 — flash latency sensitivity", func() (Result, error) {
			return tabulated(figure9Table)(Figure9())
		}},
		{"fig10", "Figure 10 — bandwidth scaling (MIR)", func() (Result, error) {
			a, err := Figure10a()
			if err != nil {
				return Result{}, err
			}
			b, err := Figure10b()
			if err != nil {
				return Result{}, err
			}
			return tables(figure10aTable(a), figure10bTable(b)), nil
		}},
		{"fig11", "Figure 11 — perf/W vs Volta", func() (Result, error) {
			rows8, err := Figure8(1)
			if err != nil {
				return Result{}, err
			}
			rows := Figure11(rows8)
			return Result{Tables: []report.Table{figure11Table(rows)}, Chart: figure11Chart(rows)}, nil
		}},
		{"fig12", "Figure 12 — energy breakdown", func() (Result, error) {
			return tabulated(figure12Table)(Figure12())
		}},
		{"fig13", "Figure 13 — query cache speedups", func() (Result, error) {
			rows, err := Figure13(DefaultQCStudy())
			if err != nil {
				return Result{}, err
			}
			return Result{Tables: []report.Table{Figure13Table(rows)}, Chart: figure13Chart(rows)}, nil
		}},
		{"fig14", "Figure 14 — query cache size", func() (Result, error) {
			rows := Figure14(DefaultQCStudy())
			return Result{Tables: []report.Table{figure14Table(rows)}, Chart: figure14Chart(rows)}, nil
		}},
		{"interference", "Extension — scan vs regular I/O interference (§4.5 claim)", func() (Result, error) {
			var rows []InterferenceResult
			for _, app := range []string{"MIR", "TIR", "TextQA"} {
				r, err := Interference(app, accel.LevelChannel, 64_000, 16_000)
				if err != nil {
					return Result{}, err
				}
				rows = append(rows, r)
			}
			return tables(interferenceTable(rows)), nil
		}},
		{"reorg", "Extension — feature reorganization (§7 pointer)", func() (Result, error) {
			return tabulated(reorgTable)(ReorgStudy(DefaultReorg()))
		}},
		{"throughput", "Extension — sustained query throughput (M/D/1, 40% QC miss)", func() (Result, error) {
			return tabulated(throughputTable)(Throughput(0.4))
		}},
		{"mq", "Extension — multi-query shared sweeps", func() (Result, error) {
			return archived(mqTable)(MultiQueryBench(DefaultMQ()))
		}},
		{"prune", "Extension — exact scan pruning", func() (Result, error) {
			return archived(pruneTable)(PruneSweep(DefaultPrune()))
		}},
		{"quant", "Extension — int8 quantized scoring", func() (Result, error) {
			rows, err := QuantSweep(DefaultQuant())
			if err != nil {
				return Result{}, err
			}
			margins, err := QuantMarginRecall(DefaultQuant(), nil)
			if err != nil {
				return Result{}, err
			}
			res, err := withRows(quantTable(rows), rows)
			res.Tables = append(res.Tables, quantMarginTable(margins))
			return res, err
		}},
		{"serve", "Extension — multi-tenant serving under overload", func() (Result, error) {
			return archived(serveTable)(ServeBench(DefaultServe()))
		}},
		{"rebalance", "Extension — online rebalance under load", func() (Result, error) {
			return archived(rebalanceTable)(RebalanceBench(DefaultRebalance()))
		}},
		{"qhist", "Extension — query-history cache admission", func() (Result, error) {
			return archived(qhistTable)(QHistSweep(DefaultQHist()))
		}},
		{"faults", "Extension — fault sweep (degraded operation)", func() (Result, error) {
			return archived(faultsTable)(FaultSweep(DefaultFaults()))
		}},
		{"breakdown", "Extension — per-stage latency breakdown", func() (Result, error) {
			r, err := LatencyBreakdown(DefaultBreakdown())
			if err != nil {
				return Result{}, err
			}
			return breakdownResult(r)
		}},
		{"recall", "Extension — query cache recall (§4.6 premise)", func() (Result, error) {
			return tabulated(recallTable)(QCRecall(DefaultRecall()))
		}},
		{"ablations", "Ablations — dataflow, precision, shared L2", func() (Result, error) {
			df, err := AblationDataflow()
			if err != nil {
				return Result{}, err
			}
			pr, err := AblationPrecision()
			if err != nil {
				return Result{}, err
			}
			l2, err := AblationL2()
			if err != nil {
				return Result{}, err
			}
			return tables(ablationDataflowTable(df), ablationPrecisionTable(pr), ablationL2Table(l2)), nil
		}},
	}
}
