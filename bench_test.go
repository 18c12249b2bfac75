package deepstore

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its experiment through the same code paths as
// cmd/deepstore-bench; -benchtime=1x reproduces the full set quickly, and
// the reported ns/op measures the cost of regenerating the artifact.

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/exp"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Table1()
		if len(rows) != 5 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Figure2()
		if len(rows) != 40 {
			b.Fatal("figure 2 incomplete")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := exp.Figure6()
		if len(points) != 9 {
			b.Fatal("figure 6 incomplete")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Table3()
		if len(rows) != 3 {
			b.Fatal("table 3 incomplete")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure8(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("figure 8 incomplete")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("figure 9 incomplete")
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := exp.Figure10a()
		if err != nil {
			b.Fatal(err)
		}
		bb, err := exp.Figure10b()
		if err != nil {
			b.Fatal(err)
		}
		if len(a) == 0 || len(bb) == 0 {
			b.Fatal("figure 10 incomplete")
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure8(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(exp.Figure11(rows)) == 0 {
			b.Fatal("figure 11 incomplete")
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("figure 12 incomplete")
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	cfg := exp.DefaultQCStudy()
	cfg.TraceLen = 6000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("figure 13 incomplete")
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	cfg := exp.DefaultQCStudy()
	cfg.TraceLen = 6000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(exp.Figure14(cfg)) == 0 {
			b.Fatal("figure 14 incomplete")
		}
	}
}

// Extension-study benchmarks: interference (§4.5 claim), query-cache recall
// (§4.6 premise), feature reorganization (§7 pointer), and the sustained-
// throughput envelope.

func BenchmarkInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Interference("MIR", accel.LevelChannel, 32_000, 8_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQCRecall(b *testing.B) {
	cfg := exp.DefaultRecall()
	cfg.Features = 1000
	cfg.Queries = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.QCRecall(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReorgStudy(b *testing.B) {
	cfg := exp.DefaultReorg()
	cfg.Features = 1500
	cfg.Queries = 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.ReorgStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Throughput(0.4); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out: the §4.5
// dataflow assignment and the §7 precision extension.

func BenchmarkAblationDataflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationDataflow()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("ablation incomplete")
		}
	}
}

func BenchmarkAblationPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationPrecision()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("ablation incomplete")
		}
	}
}

func BenchmarkQuantSweep(b *testing.B) {
	cfg := exp.DefaultQuant()
	cfg.Features = 8192
	cfg.Queries = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.QuantSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("quant sweep incomplete")
		}
	}
}

// BenchmarkScoreRange measures the one scan kernel on a 100k-feature TIR
// database (1.5 MB of FC weights per comparison — the weight-streaming regime
// of the §2–§3 scan): a single full-database query, and sixteen queries
// sharing one sweep of a sixteenth of it through QueryMulti, so both cases
// score the same 100k (query, feature) comparisons per op. Reported metrics:
// comparisons per second and ns per comparison of the functional scan.
func BenchmarkScoreRange(b *testing.B) {
	const features = 100_000
	sys, err := New(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	app, err := AppByName("TIR")
	if err != nil {
		b.Fatal(err)
	}
	app.SCN.InitRandom(1)
	db := NewFeatureDB(app, features, 42)
	dbID, err := sys.WriteDB(db.Vectors)
	if err != nil {
		b.Fatal(err)
	}
	model, err := sys.LoadModelNetwork(app.SCN)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		nq   int
	}{{"Q=1", 1}, {"Q=16", 16}} {
		b.Run(c.name, func(b *testing.B) {
			specs := make([]QuerySpec, c.nq)
			for i := range specs {
				specs[i] = QuerySpec{QFV: db.Vectors[i], K: 10, Model: model, DB: dbID, DBEnd: features / int64(c.nq)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := make([]QueryID, 1)
				if c.nq == 1 {
					ids[0], err = sys.Query(specs[0])
				} else {
					ids, err = sys.QueryMulti(specs)
				}
				if err != nil {
					b.Fatal(err)
				}
				for _, id := range ids {
					if _, err := sys.GetResults(id); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(features/perOp, "features/s")
			b.ReportMetric(perOp*1e9/features, "ns/feature")
		})
	}
}
