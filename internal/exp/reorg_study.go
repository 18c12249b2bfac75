package exp

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/reorg"
	"repro/internal/report"
	"repro/internal/topk"
	"repro/internal/workload"
)

// Feature-reorganization study (§7's pointer): cluster the feature database
// offline, store it cluster-contiguously, and scan only the top-m clusters
// by centroid similarity. Speedup is the inverse of the scanned fraction
// (the scan is bandwidth/compute-proportional); the cost is recall against
// the full scan.

// ReorgRow is one pruning point.
type ReorgRow struct {
	ClustersScanned int
	Fraction        float64 // of the database scanned
	Speedup         float64 // 1/Fraction
	MeanRecall      float64 // |prunedTopK ∩ fullTopK| / K over all queries
}

// ReorgConfig sizes the study.
type ReorgConfig struct {
	Features int
	Clusters int
	Queries  int
	K        int
	Seed     int64
}

// DefaultReorg returns a laptop-scale configuration.
func DefaultReorg() ReorgConfig {
	return ReorgConfig{Features: 4000, Clusters: 32, Queries: 60, K: 10, Seed: 7}
}

// ReorgStudy builds a clustered corpus with planted relevance (as in the
// recall study) and sweeps the scanned-cluster budget.
func ReorgStudy(cfg ReorgConfig) ([]ReorgRow, error) {
	app, err := workload.ByName("TextQA")
	if err != nil {
		return nil, err
	}
	fe := app.SCN.FeatureElems()
	scn, err := dotNet("reorg-scn", fe, 0.05)
	if err != nil {
		return nil, err
	}

	const intents = 40
	vectors, intentVecs := plantedCorpus(app, cfg.Features, intents, cfg.Seed)

	cl, err := reorg.KMeans(vectors, cfg.Clusters, 15, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	host := baseline.HostScan{Net: scn}

	noise := workload.NewFeatureDB(app, cfg.Queries, cfg.Seed+999)
	queries := make([][]float32, cfg.Queries)
	for qi := range queries {
		base := intentVecs[qi%intents]
		v := make([]float32, fe)
		for j := range v {
			v[j] = base[j] + 0.02*noise.Vectors[qi][j]
		}
		queries[qi] = v
	}

	// Ground truth per query.
	truths := make([][]topk.Entry, cfg.Queries)
	for qi, q := range queries {
		if truths[qi], err = host.TopK(q, vectors, cfg.K); err != nil {
			return nil, err
		}
	}

	var rows []ReorgRow
	for _, m := range []int{1, 2, 4, 8, 16, cfg.Clusters} {
		if m > cfg.Clusters {
			continue
		}
		var fracSum, recallSum float64
		for qi, q := range queries {
			ranked := cl.RankClusters(func(cent []float32) float32 {
				return scn.Score(q, cent)
			})
			cand, frac := cl.Candidates(ranked, m)
			fracSum += frac
			pruned := topk.New(cfg.K)
			for _, i := range cand {
				pruned.Offer(topk.Entry{FeatureID: int64(i), Score: scn.Score(q, vectors[i])})
			}
			recallSum += float64(overlap(truths[qi], pruned.Results())) / float64(cfg.K)
		}
		frac := fracSum / float64(cfg.Queries)
		rows = append(rows, ReorgRow{
			ClustersScanned: m,
			Fraction:        frac,
			Speedup:         1 / frac,
			MeanRecall:      recallSum / float64(cfg.Queries),
		})
	}
	return rows, nil
}

// reorgTable tabulates the study.
func reorgTable(rows []ReorgRow) report.Table {
	header := []string{"Clusters scanned", "DB fraction", "Scan speedup", "Recall@K"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprint(r.ClustersScanned), F(r.Fraction), F(r.Speedup), F(r.MeanRecall),
		})
	}
	return report.Table{Name: "reorg", Header: header, Rows: out}
}
