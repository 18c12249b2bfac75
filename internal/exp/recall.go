package exp

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Query-cache recall study. The QC design rests on the §4.6 insight that
// "DNN-based queries have already tolerated a certain level of errors": a
// hit returns the cached entry's top-K re-ranked by the SCN instead of a
// fresh full scan. This experiment quantifies that tolerance — for a stream
// of paraphrased queries, what fraction of the true top-K does the cache-hit
// answer recover?

// RecallRow is one threshold point of the study.
type RecallRow struct {
	ThresholdPct int
	HitRate      float64
	// MeanRecall is the average |cacheTopK ∩ trueTopK| / K over cache hits
	// (1.0 when every hit returns exactly the full-scan answer).
	MeanRecall float64
	// Hits counts the queries the cache served.
	Hits int
}

// RecallConfig sizes the study.
type RecallConfig struct {
	Features int // materialized database size
	Intents  int // distinct query intents
	Queries  int // stream length
	K        int // top-K
	Entries  int // cache entries
	Seed     int64
	// Noise is the paraphrase perturbation added per occurrence.
	Noise float32
}

// DefaultRecall returns a laptop-scale configuration.
func DefaultRecall() RecallConfig {
	return RecallConfig{
		Features: 2000, Intents: 40, Queries: 300, K: 10, Entries: 64,
		Seed: 11, Noise: 0.02,
	}
}

// dotNet builds a similarity-faithful comparison network: a Hadamard front
// end summed by an FC whose weights are all w — score = sigmoid(w·q·d).
// Trained SCNs approximate exactly this kind of monotone similarity; an
// untrained random network has a near-degenerate score landscape where tiny
// paraphrase noise reshuffles rankings arbitrarily, which would measure
// noise rather than the cache design. The weight scale matters: on the
// planted corpus same-intent dot products are ≈ fe/3 and cross-intent ones
// ≈ ±√(fe)/3, and w = 0.05 puts same-intent pairs at sigmoid ≈ 0.96 and
// cross-intent pairs near 0.5, so the sigmoid neither saturates into
// degenerate ties nor lets unrelated intents score as similar.
func dotNet(name string, fe int, w float32) (*nn.Network, error) {
	net, err := nn.NewNetwork(name, tensor.Shape{fe}, nn.CombineHadamard,
		nn.NewFC("sum", fe, 1, nn.ActSigmoid))
	if err != nil {
		return nil, err
	}
	fc := net.Layers[0].(*nn.FC)
	for i := range fc.W {
		fc.W[i] = w
	}
	return net, nil
}

// plantedCorpus builds the database of the recall, reorg and quant studies:
// random background features with relevance structure planted in — real
// retrieval corpora contain items that actually match each query intent,
// scored far above the background. The first intents×15 features are noisy
// copies of their intent's query vector. It returns the database and the
// intents' vectors.
func plantedCorpus(app *workload.App, features, intents int, seed int64) (vectors, intentVecs [][]float32) {
	intentVecs = make([][]float32, intents)
	for i := range intentVecs {
		intentVecs[i] = workload.NewFeatureDB(app, 1, seed+100+int64(i)).Vectors[0]
	}
	const relevantPerIntent = 15
	vectors = workload.NewFeatureDB(app, features, seed+1).Vectors
	planted := workload.NewFeatureDB(app, intents*relevantPerIntent, seed+500).Vectors
	for idx := 0; idx < intents*relevantPerIntent && idx < len(vectors); idx++ {
		for j, v := range intentVecs[idx/relevantPerIntent] {
			vectors[idx][j] = v + 0.15*planted[idx][j]
		}
	}
	return vectors, intentVecs
}

// paraphrasedStream derives a Zipfian(0.7) query stream over the intents,
// each occurrence perturbed by its own paraphrase noise.
func paraphrasedStream(app *workload.App, intentVecs [][]float32, queries int, noise float32, seed int64) [][]float32 {
	trace := workload.GenerateTrace(workload.TraceConfig{
		Universe: int64(len(intentVecs)), Length: queries,
		Dist: workload.Zipfian, Alpha: 0.7, Seed: seed,
	})
	jitter := workload.NewFeatureDB(app, queries, seed+999).Vectors
	qfvs := make([][]float32, queries)
	for qi, q := range trace.Queries {
		base := intentVecs[q.SemanticID]
		qfvs[qi] = make([]float32, len(base))
		for j, v := range base {
			qfvs[qi][j] = v + noise*jitter[qi][j]
		}
	}
	return qfvs
}

// QCRecall sweeps the error threshold and measures hit rate and recall of
// cache-served answers against ground-truth full scans, on TextQA-shaped
// features (the cheapest workload; the study is SCN-agnostic).
func QCRecall(cfg RecallConfig) ([]RecallRow, error) {
	app, err := workload.ByName("TextQA")
	if err != nil {
		return nil, err
	}
	fe := app.SCN.FeatureElems()
	scn, err := dotNet("recall-scn", fe, 0.05)
	if err != nil {
		return nil, err
	}
	host := baseline.HostScan{Net: scn}

	qcn, err := dotNet("recall-qcn", fe, 0.05)
	if err != nil {
		return nil, err
	}

	vectors, intents := plantedCorpus(app, cfg.Features, cfg.Intents, cfg.Seed)
	qfvs := paraphrasedStream(app, intents, cfg.Queries, cfg.Noise, cfg.Seed)

	var rows []RecallRow
	for _, pct := range []int{5, 10, 20, 40} {
		threshold := float64(pct) / 100
		got, err := replayStream(core.DefaultOptions(), vectors, scn, func(ds *core.DeepStore) error {
			return ds.SetQC(qcn, 1.0, cfg.Entries, threshold)
		}, qfvs, cfg.K)
		if err != nil {
			return nil, err
		}
		row := RecallRow{ThresholdPct: pct}
		var recallSum float64
		for i, res := range got.results {
			if !res.CacheHit {
				continue
			}
			row.Hits++
			truth, err := host.TopK(qfvs[i], vectors, cfg.K)
			if err != nil {
				return nil, err
			}
			recallSum += float64(overlap(truth, res.TopK)) / float64(cfg.K)
		}
		row.HitRate = float64(row.Hits) / float64(cfg.Queries)
		if row.Hits > 0 {
			row.MeanRecall = recallSum / float64(row.Hits)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// recallTable tabulates the study.
func recallTable(rows []RecallRow) report.Table {
	header := []string{"Threshold %", "Hit rate", "Hits", "Mean recall@K"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprint(r.ThresholdPct), F(r.HitRate), fmt.Sprint(r.Hits), F(r.MeanRecall),
		})
	}
	return report.Table{Name: "recall", Header: header, Rows: out}
}
