package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/workload"
)

// Quantized-scoring study (DESIGN.md §12). The int8 feature table quarters
// the bytes every scanned feature drags through flash, the NoC, and DRAM,
// and runs the systolic arrays at 4 MACs/PE — the §7 precision win — at the
// price of quantization error in the scan scores. QuantSweep measures the
// simulated corpus throughput and the answer quality of both quantized
// modes against the fp32 engine on the same planted-intent database, and is
// the artifact CI validates (BENCH_quant.json: int8 features/s above fp32,
// approximate recall@K ≥ 0.95, zero two-pass mismatches).
//
// The database must span several pages per channel at int8 width: the event
// model reads page-granular, so a table under one page per channel shows no
// flash win (the same holds on real hardware).

// QuantConfig sizes the quantization study.
type QuantConfig struct {
	Features int   // materialized database size
	Intents  int   // distinct query intents (planted clusters)
	Queries  int   // query-stream length
	K        int   // top-K
	Margin   int   // two-pass candidate multiplier (int8-exact mode)
	Seed     int64 // database + stream seed
	// Noise is the per-occurrence query paraphrase perturbation.
	Noise float32
}

// DefaultQuant returns a CI-scale configuration (a few seconds total).
func DefaultQuant() QuantConfig {
	return QuantConfig{Features: 16384, Intents: 32, Queries: 6, K: 10,
		Margin: 4, Seed: 9, Noise: 0.02}
}

// QuantRow is one engine mode of the study. Wall-clock time is reported for
// interactive runs but excluded from the JSON artifact so BENCH_quant.json
// is byte-identical across runs of the same configuration.
type QuantRow struct {
	Mode          string  `json:"mode"` // "fp32", "int8", or "int8-exact"
	Queries       int     `json:"queries"`
	Features      int     `json:"features"`
	K             int     `json:"k"`
	Margin        int     `json:"margin"` // 0 outside int8-exact
	SimSec        float64 `json:"sim_sec"`
	FeaturesSec   float64 `json:"features_per_sec"` // Features*Queries/SimSec
	SpeedupVsFP32 float64 `json:"speedup_vs_fp32"`
	// RecallAtK is the mean |topK ∩ fp32 topK| / K over the stream.
	RecallAtK float64 `json:"recall_at_k"`
	// Mismatches counts top-K entries (ID, score, object) differing from the
	// fp32 engine's — the exactness check for the two-pass mode.
	Mismatches int     `json:"mismatches"`
	WallSec    float64 `json:"-"`
}

// quantFixture is what both quant sweeps share: the comparison network, the
// planted-intent database (so recall against fp32 measures quantization error
// rather than ranking noise) and the paraphrased query stream.
type quantFixture struct {
	cfg           QuantConfig
	scn           *nn.Network
	vectors, qfvs [][]float32
}

func newQuantFixture(cfg QuantConfig, scnName string) (*quantFixture, error) {
	app, err := workload.ByName("TextQA")
	if err != nil {
		return nil, err
	}
	scn, err := dotNet(scnName, app.SCN.FeatureElems(), 0.05)
	if err != nil {
		return nil, err
	}
	vectors, intents := plantedCorpus(app, cfg.Features, cfg.Intents, cfg.Seed)
	return &quantFixture{cfg: cfg, scn: scn, vectors: vectors,
		qfvs: paraphrasedStream(app, intents, cfg.Queries, cfg.Noise, cfg.Seed)}, nil
}

// run replays the stream on a fresh engine in the given mode. The study
// reads the replay's summed latency rather than its engine-clock delta: the
// exact mode's rerank stage (like pruning's bound checks) is charged to the
// query's latency, not the engine event clock, and the study must see the
// two-pass tax.
func (f *quantFixture) run(quantized bool, margin int) (replay, error) {
	opts := core.DefaultOptions()
	opts.Quantized = quantized
	opts.RerankMargin = margin
	return replayStream(opts, f.vectors, f.scn, nil, f.qfvs, f.cfg.K)
}

// QuantSweep runs the study: the same query stream on an fp32 engine, an
// approximate int8 engine, and a two-pass exact int8 engine over the same
// database, comparing every answer against the fp32 reference.
func QuantSweep(cfg QuantConfig) ([]QuantRow, error) {
	if cfg.Features < 1 || cfg.Intents < 1 || cfg.Queries < 1 || cfg.K < 1 || cfg.Margin < 1 {
		return nil, fmt.Errorf("exp: quant config %+v invalid", cfg)
	}
	f, err := newQuantFixture(cfg, "quant-scn")
	if err != nil {
		return nil, err
	}
	ref, err := f.run(false, 0)
	if err != nil {
		return nil, err
	}
	refSim := ref.latency.Seconds()
	corpus := float64(cfg.Features) * float64(cfg.Queries)
	rows := []QuantRow{{
		Mode: "fp32", Queries: cfg.Queries, Features: cfg.Features, K: cfg.K,
		SimSec: refSim, FeaturesSec: corpus / refSim,
		SpeedupVsFP32: 1, RecallAtK: 1, WallSec: ref.wallSec,
	}}
	for _, m := range []struct {
		name   string
		margin int
	}{{"int8", 0}, {"int8-exact", cfg.Margin}} {
		got, err := f.run(true, m.margin)
		if err != nil {
			return nil, err
		}
		recall, mismatched := scoreAgainstRef(ref, got, cfg.K)
		simSec := got.latency.Seconds()
		rows = append(rows, QuantRow{
			Mode: m.name, Queries: cfg.Queries, Features: cfg.Features, K: cfg.K,
			Margin: m.margin, SimSec: simSec, FeaturesSec: corpus / simSec,
			SpeedupVsFP32: refSim / simSec,
			RecallAtK:     recall, Mismatches: mismatched, WallSec: got.wallSec,
		})
	}
	return rows, nil
}

// scoreAgainstRef computes the stream's mean recall@K (feature-ID overlap)
// and the entry-exact mismatch count against the fp32 reference answers.
func scoreAgainstRef(ref, got replay, k int) (recall float64, mismatched int) {
	for i, r := range ref.results {
		recall += float64(overlap(r.TopK, got.results[i].TopK)) / float64(k)
		mismatched += mismatches(r.TopK, got.results[i].TopK)
	}
	return recall / float64(len(ref.results)), mismatched
}

// QuantMarginRow is one point of the margin sweep.
type QuantMarginRow struct {
	Margin     int     `json:"margin"`
	RecallAtK  float64 `json:"recall_at_k"`
	Mismatches int     `json:"mismatches"`
}

// QuantMarginRecall sweeps the two-pass candidate margin: with margin 1 the
// fp32 rerank can only reorder the int8 top-K (not recover candidates the
// int8 scan ranked below K), so recall may dip below 1; growing the margin
// widens the candidate set until the exact top-K always survives the first
// pass. The sweep quantifies how small a margin buys exactness on a
// realistic score landscape.
func QuantMarginRecall(cfg QuantConfig, margins []int) ([]QuantMarginRow, error) {
	if len(margins) == 0 {
		margins = []int{1, 2, 4, 8}
	}
	f, err := newQuantFixture(cfg, "quant-margin-scn")
	if err != nil {
		return nil, err
	}
	ref, err := f.run(false, 0)
	if err != nil {
		return nil, err
	}
	var rows []QuantMarginRow
	for _, m := range margins {
		if m < 1 {
			return nil, fmt.Errorf("exp: margin %d < 1", m)
		}
		got, err := f.run(true, m)
		if err != nil {
			return nil, err
		}
		recall, mismatched := scoreAgainstRef(ref, got, cfg.K)
		rows = append(rows, QuantMarginRow{Margin: m, RecallAtK: recall, Mismatches: mismatched})
	}
	return rows, nil
}

// quantTable tabulates the study.
func quantTable(rows []QuantRow) report.Table {
	header := []string{"Mode", "Queries", "Features", "K", "Margin",
		"Sim (s)", "Features/s", "vs fp32", "Recall@K", "Mismatch", "Wall (s)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Mode, fmt.Sprint(r.Queries), fmt.Sprint(r.Features), fmt.Sprint(r.K),
			fmt.Sprint(r.Margin), F(r.SimSec), F(r.FeaturesSec),
			F(r.SpeedupVsFP32) + "x", F(r.RecallAtK), fmt.Sprint(r.Mismatches), F(r.WallSec),
		})
	}
	return report.Table{Name: "quant", Header: header, Rows: out}
}

// quantMarginTable tabulates the margin sweep.
func quantMarginTable(rows []QuantMarginRow) report.Table {
	header := []string{"Margin", "Recall@K", "Mismatch"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{fmt.Sprint(r.Margin), F(r.RecallAtK), fmt.Sprint(r.Mismatches)})
	}
	return report.Table{Name: "quant-margin", Title: "Extension — int8 two-pass rerank margin", Header: header, Rows: out}
}
