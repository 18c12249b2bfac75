package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/sim"
)

// The quantized-path suite rides on the prune suite's small device and
// block-clustered databases (prune_test.go): 4 channels keep shard queues
// small enough to fill, and clustering gives the int8 scan real score
// separation, so the two-pass margin has honest work to do.

const quantTestMargin = 4

func quantTestOpts(margin int) Options {
	opts := pruneTestOpts(false)
	opts.Quantized = true
	opts.RerankMargin = margin
	return opts
}

func stageDur(r *QueryResult, name string) (sim.Duration, bool) {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Dur, true
		}
	}
	return 0, false
}

// TestQuantTwoPassMatchesDense is the main exactness suite: every sweep shape ×
// qcache on/off × odd database sizes, with repeated queries as cache-hit
// candidates. Two-pass exact mode (int8 scan for K·margin candidates, fp32
// rerank) must return bit-identical top-K to the fp32 dense engine, make the
// same cache decisions, emit a rerank_exact stage on misses, and keep the
// stage-sum == latency invariant.
func TestQuantTwoPassMatchesDense(t *testing.T) {
	net := pruneTestNet()
	for _, features := range []int{67, 131} {
		vectors := clusteredVectors(features, int64(features))
		queries := [][]float32{
			vectors[0],
			vectors[features/2],
			vectors[0], // repeat: cache-hit candidate
			vectors[features-1],
		}
		for _, shape := range scanShapes {
			for _, qcOn := range []bool{false, true} {
				name := fmt.Sprintf("n=%d/%s/qc=%v", features, shape.name, qcOn)
				t.Run(name, func(t *testing.T) {
					dense, dModel, dDB := buildPruneEngine(t, shape.on(t, pruneTestOpts(false)), net, vectors)
					quant, qModel, qDB := buildPruneEngine(t, shape.on(t, quantTestOpts(quantTestMargin)), net, vectors)
					if qcOn {
						qcn := pruneTestQCN()
						if err := dense.SetQC(qcn, 1.0, 16, 0.05); err != nil {
							t.Fatal(err)
						}
						if err := quant.SetQC(qcn, 1.0, 16, 0.05); err != nil {
							t.Fatal(err)
						}
					}
					hits := 0
					for qi, qv := range queries {
						d := runQuery(t, dense, QuerySpec{QFV: qv, K: pruneTestK, Model: dModel, DB: dDB})
						q := runQuery(t, quant, QuerySpec{QFV: qv, K: pruneTestK, Model: qModel, DB: qDB})
						label := fmt.Sprintf("query %d", qi)
						assertSameTopK(t, label, q.TopK, d.TopK)
						if q.CacheHit != d.CacheHit {
							t.Fatalf("%s: quant hit=%v, dense hit=%v", label, q.CacheHit, d.CacheHit)
						}
						assertStageSum(t, label+" dense", d)
						assertStageSum(t, label+" quant", q)
						if hasStage(d, obs.StageRerankExact) {
							t.Fatalf("%s: dense engine emitted a rerank_exact stage", label)
						}
						if q.CacheHit {
							hits++
							// The cache stores the exact (reranked) top-K, so the
							// hit path is the same fp32 rerank both engines run.
							if q.Latency != d.Latency {
								t.Fatalf("%s: hit latencies diverge: %v vs %v", label, q.Latency, d.Latency)
							}
							continue
						}
						if !hasStage(q, obs.StageRerankExact) {
							t.Fatalf("%s: quant miss has no rerank_exact stage: %+v", label, q.Stages)
						}
						if q.FeaturesScanned != d.FeaturesScanned {
							t.Fatalf("%s: quant scanned %d, dense %d", label, q.FeaturesScanned, d.FeaturesScanned)
						}
					}
					if qcOn && hits == 0 {
						t.Fatal("repeated queries never hit the cache")
					}
				})
			}
		}
	}
}

// TestQuantTwoPassQueryMulti: shared sweeps scan for K·margin per member and
// each member's fp32 rerank restores the exact top-K — bit-identical to the
// dense engine AND to sequential quantized submission, for Q ∈ {1, 7, 64}.
func TestQuantTwoPassQueryMulti(t *testing.T) {
	const features = 131
	net := pruneTestNet()
	vectors := clusteredVectors(features, 17)
	for _, nq := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("Q=%d", nq), func(t *testing.T) {
			multi, mModel, mDB := buildPruneEngine(t, quantTestOpts(quantTestMargin), net, vectors)
			seq, sModel, sDB := buildPruneEngine(t, quantTestOpts(quantTestMargin), net, vectors)
			dense, dModel, dDB := buildPruneEngine(t, pruneTestOpts(false), net, vectors)

			specs := make([]QuerySpec, nq)
			for i := range specs {
				specs[i] = QuerySpec{QFV: vectors[(i*13)%features], K: pruneTestK, Model: mModel, DB: mDB}
			}
			ids, err := multi.QueryMulti(specs)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				m, err := multi.GetResults(id)
				if err != nil {
					t.Fatal(err)
				}
				qv := specs[i].QFV
				s := runQuery(t, seq, QuerySpec{QFV: qv, K: pruneTestK, Model: sModel, DB: sDB})
				d := runQuery(t, dense, QuerySpec{QFV: qv, K: pruneTestK, Model: dModel, DB: dDB})
				label := fmt.Sprintf("member %d", i)
				assertSameTopK(t, label+" vs dense", m.TopK, d.TopK)
				assertSameTopK(t, label+" vs sequential", m.TopK, s.TopK)
				if m.Latency != s.Latency {
					t.Errorf("%s: multi latency %v, sequential %v", label, m.Latency, s.Latency)
				}
				if !hasStage(m, obs.StageSharedScan) {
					t.Fatalf("%s: no shared_scan stage: %+v", label, m.Stages)
				}
				if !hasStage(m, obs.StageRerankExact) {
					t.Fatalf("%s: no rerank_exact stage: %+v", label, m.Stages)
				}
				assertStageSum(t, label, m)
			}
		})
	}
}

// TestQuantApproxSpeedsUpScan: approximate mode (RerankMargin == 0) emits no
// rerank_exact stage, keeps the stage-sum invariant, and its simulated scan
// is faster than the fp32 engine's — the int8 table is a quarter of the
// flash bytes and the arrays run 4 MACs/PE. The database must span many
// pages per channel: the event model charges compute at page granularity,
// so a table smaller than one page per channel shows no flash win.
func TestQuantApproxSpeedsUpScan(t *testing.T) {
	const features = 32768
	net := pruneTestNet()
	vectors := clusteredVectors(features, 31)
	dense, dModel, dDB := buildPruneEngine(t, pruneTestOpts(false), net, vectors)
	quant, qModel, qDB := buildPruneEngine(t, quantTestOpts(0), net, vectors)
	for qi, qv := range [][]float32{vectors[0], vectors[70]} {
		d := runQuery(t, dense, QuerySpec{QFV: qv, K: pruneTestK, Model: dModel, DB: dDB})
		q := runQuery(t, quant, QuerySpec{QFV: qv, K: pruneTestK, Model: qModel, DB: qDB})
		label := fmt.Sprintf("query %d", qi)
		if hasStage(q, obs.StageRerankExact) {
			t.Fatalf("%s: approximate mode emitted a rerank_exact stage", label)
		}
		assertStageSum(t, label, q)
		dScan, ok := stageDur(d, obs.StageScan)
		if !ok {
			t.Fatalf("%s: dense result has no scan stage", label)
		}
		qScan, ok := stageDur(q, obs.StageScan)
		if !ok {
			t.Fatalf("%s: quant result has no scan stage", label)
		}
		if qScan >= dScan {
			t.Fatalf("%s: int8 scan (%v) not faster than fp32 scan (%v)", label, qScan, dScan)
		}
		if q.Energy.Total() >= d.Energy.Total() {
			t.Fatalf("%s: int8 scan energy %v J not below fp32 %v J", label, q.Energy.Total(), d.Energy.Total())
		}
	}
}

// TestQuantPruneGuard: stripe bounds are fp32 envelopes and do not bound int8
// scan scores, so Prune+Quantized is only legal in two-pass mode.
func TestQuantPruneGuard(t *testing.T) {
	opts := quantTestOpts(0)
	opts.Prune = true
	opts.PruneStripeFeatures = pruneTestSF
	if _, err := New(opts); !errors.Is(err, ErrQuantPruneApprox) {
		t.Fatalf("Prune+Quantized without margin: got %v, want ErrQuantPruneApprox", err)
	}
	opts.RerankMargin = quantTestMargin
	if _, err := New(opts); err != nil {
		t.Fatalf("Prune+Quantized with margin rejected: %v", err)
	}
	bad := quantTestOpts(-1)
	if _, err := New(bad); err == nil {
		t.Fatal("negative RerankMargin accepted")
	}
}

// TestQuantPruneTwoPassExact: with pruning AND quantization on (two-pass
// mode), the clustered database's stripes separate scores well enough that
// the pruned int8 candidate scan plus fp32 rerank still reproduces the dense
// fp32 top-K exactly, while both tiers do real work.
func TestQuantPruneTwoPassExact(t *testing.T) {
	const features = 131
	net := pruneTestNet()
	vectors := clusteredVectors(features, 7)
	opts := quantTestOpts(quantTestMargin)
	opts.Prune = true
	opts.PruneStripeFeatures = pruneTestSF
	both, bModel, bDB := buildPruneEngine(t, opts, net, vectors)
	dense, dModel, dDB := buildPruneEngine(t, pruneTestOpts(false), net, vectors)
	var skipped int64
	for qi, qv := range [][]float32{vectors[0], vectors[70], vectors[130]} {
		b := runQuery(t, both, QuerySpec{QFV: qv, K: pruneTestK, Model: bModel, DB: bDB})
		d := runQuery(t, dense, QuerySpec{QFV: qv, K: pruneTestK, Model: dModel, DB: dDB})
		label := fmt.Sprintf("query %d", qi)
		assertSameTopK(t, label, b.TopK, d.TopK)
		if !hasStage(b, obs.StageBoundCheck) || !hasStage(b, obs.StageRerankExact) {
			t.Fatalf("%s: missing tier stages: %+v", label, b.Stages)
		}
		assertStageSum(t, label, b)
		skipped += b.Prune.FeaturesSkipped
	}
	if skipped == 0 {
		t.Fatal("prune+quant suite never skipped a feature")
	}
}

// TestQuantAppendRequantizes: appends must leave the int8 table consistent
// with the grown database — queries after unaligned appends match both a
// dense engine and a freshly built quantized engine on the same final data.
func TestQuantAppendRequantizes(t *testing.T) {
	const features = 67
	net := pruneTestNet()
	vectors := clusteredVectors(features, 11)

	appended, aModel, aDB := buildPruneEngine(t, quantTestOpts(quantTestMargin), net, vectors[:40])
	if err := appended.AppendDB(aDB, vectors[40:47]); err != nil {
		t.Fatal(err)
	}
	if err := appended.AppendDB(aDB, vectors[47:]); err != nil {
		t.Fatal(err)
	}
	fresh, fModel, fDB := buildPruneEngine(t, quantTestOpts(quantTestMargin), net, vectors)
	dense, dModel, dDB := buildPruneEngine(t, pruneTestOpts(false), net, vectors)

	for qi, qv := range [][]float32{vectors[0], vectors[45], vectors[66]} {
		a := runQuery(t, appended, QuerySpec{QFV: qv, K: pruneTestK, Model: aModel, DB: aDB})
		f := runQuery(t, fresh, QuerySpec{QFV: qv, K: pruneTestK, Model: fModel, DB: fDB})
		d := runQuery(t, dense, QuerySpec{QFV: qv, K: pruneTestK, Model: dModel, DB: dDB})
		label := fmt.Sprintf("query %d", qi)
		assertSameTopK(t, label+" vs dense", a.TopK, d.TopK)
		assertSameTopK(t, label+" vs fresh", a.TopK, f.TopK)
		if a.Latency != f.Latency {
			t.Fatalf("%s: appended latency %v, fresh %v", label, a.Latency, f.Latency)
		}
	}
}

// TestQuantReorgRequantizes: an in-storage reorganization moves every slot,
// so the whole int8 table is requantized; queries after ReorgDB match a
// fresh quantized engine built directly on the reordered vectors.
func TestQuantReorgRequantizes(t *testing.T) {
	const features = 67
	net := pruneTestNet()
	vectors := clusteredVectors(features, 13)
	order := make([]int, features)
	for i := range order {
		order[i] = features - 1 - i
	}
	reordered, err := reorg.ApplyOrder(vectors, order)
	if err != nil {
		t.Fatal(err)
	}

	moved, mModel, mDB := buildPruneEngine(t, quantTestOpts(quantTestMargin), net, vectors)
	if err := moved.ReorgDB(mDB, order); err != nil {
		t.Fatal(err)
	}
	fresh, fModel, fDB := buildPruneEngine(t, quantTestOpts(quantTestMargin), net, reordered)
	dense, dModel, dDB := buildPruneEngine(t, pruneTestOpts(false), net, reordered)

	for qi, qv := range [][]float32{vectors[0], vectors[33]} {
		m := runQuery(t, moved, QuerySpec{QFV: qv, K: pruneTestK, Model: mModel, DB: mDB})
		f := runQuery(t, fresh, QuerySpec{QFV: qv, K: pruneTestK, Model: fModel, DB: fDB})
		d := runQuery(t, dense, QuerySpec{QFV: qv, K: pruneTestK, Model: dModel, DB: dDB})
		label := fmt.Sprintf("query %d", qi)
		assertSameTopK(t, label+" vs dense", m.TopK, d.TopK)
		assertSameTopK(t, label+" vs fresh", m.TopK, f.TopK)
	}
}

// TestQuantDeclaredDBFallsBack: declared (spec-only) databases have no
// vectors to quantize, so a quantized engine charges them at fp32 and never
// emits a rerank_exact stage.
func TestQuantDeclaredDBFallsBack(t *testing.T) {
	quant, err := New(quantTestOpts(quantTestMargin))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := New(pruneTestOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	var qDB, dDB ftl.DBID
	if qDB, err = quant.DeclareDB(pruneTestDims*4, 1024); err != nil {
		t.Fatal(err)
	}
	if dDB, err = dense.DeclareDB(pruneTestDims*4, 1024); err != nil {
		t.Fatal(err)
	}
	net := pruneTestNet()
	qModel, err := quant.LoadModelNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	dModel, err := dense.LoadModelNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	qv := make([]float32, pruneTestDims)
	q := runQuery(t, quant, QuerySpec{QFV: qv, K: pruneTestK, Model: qModel, DB: qDB})
	d := runQuery(t, dense, QuerySpec{QFV: qv, K: pruneTestK, Model: dModel, DB: dDB})
	if hasStage(q, obs.StageRerankExact) {
		t.Fatalf("declared DB emitted a rerank_exact stage: %+v", q.Stages)
	}
	if q.Latency != d.Latency {
		t.Fatalf("declared DB charged %v on the quantized engine, %v dense", q.Latency, d.Latency)
	}
}

// TestQuantCheckpointRestoresTable: the int8 table's layout survives a
// metadata checkpoint/restore cycle.
func TestQuantCheckpointRestoresTable(t *testing.T) {
	const features = 67
	net := pruneTestNet()
	vectors := clusteredVectors(features, 19)
	ds, _, dbID := buildPruneEngine(t, quantTestOpts(quantTestMargin), net, vectors)
	img, err := ds.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ftl.Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	meta, ok := restored.Lookup(dbID)
	if !ok {
		t.Fatalf("database %d missing after restore", dbID)
	}
	if _, ok := restored.Region(dbID, ftl.QuantRegion); !ok {
		t.Fatal("quant table record lost in checkpoint/restore")
	}
	if _, ok := meta.QuantTable(); !ok {
		t.Fatal("restored meta has no derivable quant layout")
	}
}
