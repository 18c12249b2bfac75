package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/ssd"
	"repro/internal/tensor"
	"repro/internal/topk"
)

// The pruning equivalence suite runs on a deliberately small device: with 4
// channels a 3-entry shard queue actually fills after a handful of features,
// so the bound tier gets real skip opportunities in databases small enough to
// scan exhaustively in a test. The databases are block-clustered — each run
// of Channels*StripeFeatures contiguous features sits in a tiny ball around a
// per-block centroid, i.e. one block is exactly one stripe row — so stripe
// envelopes are tight and bounds discriminate between stripes.

const (
	pruneTestDims    = 8
	pruneTestSF      = 2 // Options.PruneStripeFeatures under test
	pruneTestK       = 3
	pruneTestChannel = 4
)

func pruneTestConfig() ssd.Config {
	cfg := ssd.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels:        pruneTestChannel,
		ChipsPerChannel: 1,
		PlanesPerChip:   1,
		BlocksPerPlane:  64,
		PagesPerBlock:   32,
		PageBytes:       4 << 10,
	}
	return cfg
}

func pruneTestOpts(prune bool) Options {
	opts := DefaultOptions()
	opts.Device = pruneTestConfig()
	opts.Prune = prune
	opts.PruneStripeFeatures = pruneTestSF
	return opts
}

// pruneTestNet is a small real SCN (hadamard front end, ReLU hidden layer,
// linear output) with signed scores, so the bound tier must handle both the
// nonlinearity and all-negative stripes.
func pruneTestNet() *nn.Network {
	net := nn.MustNetwork("prune-scn", tensor.Shape{pruneTestDims}, nn.CombineHadamard,
		nn.NewFC("fc1", pruneTestDims, 4, nn.ActReLU),
		nn.NewFC("fc2", 4, 1, nn.ActNone))
	net.InitRandom(3)
	return net
}

// pruneTestQCN is a hand-weighted comparison network whose self-similarity
// saturates the sigmoid, so repeating a query vector reliably hits the cache
// (sigmoid(4·Σq²) ≈ 1 for any vector of reasonable norm).
func pruneTestQCN() *nn.Network {
	fc := nn.NewFC("qcn-fc", pruneTestDims, 1, nn.ActSigmoid)
	for i := range fc.W {
		fc.W[i] = 4
	}
	return nn.MustNetwork("prune-qcn", tensor.Shape{pruneTestDims}, nn.CombineHadamard, fc)
}

// clusteredVectors builds the block-clustered database described above.
func clusteredVectors(features int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	blockLen := pruneTestChannel * pruneTestSF
	out := make([][]float32, features)
	centroid := make([]float32, pruneTestDims)
	for i := range out {
		if i%blockLen == 0 {
			for d := range centroid {
				centroid[d] = rng.Float32()*2 - 1
			}
		}
		v := make([]float32, pruneTestDims)
		for d := range v {
			v[d] = centroid[d] + (rng.Float32()*2-1)*0.01
		}
		out[i] = v
	}
	return out
}

func buildPruneEngine(t *testing.T, opts Options, net *nn.Network, vectors [][]float32) (*DeepStore, ModelID, ftl.DBID) {
	t.Helper()
	ds, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	dbID, err := ds.WriteDB(vectors)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	return ds, model, dbID
}

func runQuery(t *testing.T, ds *DeepStore, spec QuerySpec) *QueryResult {
	t.Helper()
	qid, err := ds.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.GetResults(qid)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameTopK(t *testing.T, label string, got, want []topk.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d differs: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

func assertStageSum(t *testing.T, label string, r *QueryResult) {
	t.Helper()
	var sum int64
	for _, s := range r.Stages {
		sum += int64(s.Dur)
	}
	if sum != int64(r.Latency) {
		t.Fatalf("%s: stages sum to %d, latency is %d (%+v)", label, sum, int64(r.Latency), r.Stages)
	}
}

func hasStage(r *QueryResult, name string) bool {
	for _, s := range r.Stages {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestPrunedMatchesDenseEverywhere is the main equivalence suite: every sweep
// shape × qcache on/off × odd database sizes, over a query mix with repeats
// (cache-hit candidates). The pruned engine must return bit-identical top-K,
// identical cache-hit decisions, exact stage sums, and the feature-count
// conservation law FeaturesScanned + FeaturesSkipped == dense FeaturesScanned
// — while actually skipping stripes.
func TestPrunedMatchesDenseEverywhere(t *testing.T) {
	net := pruneTestNet()
	for _, features := range []int{67, 131} {
		vectors := clusteredVectors(features, int64(features))
		queries := [][]float32{
			vectors[0],
			vectors[features/2],
			vectors[0], // repeat: cache-hit candidate
			vectors[features-1],
			vectors[features/2], // repeat
		}
		for _, shape := range scanShapes {
			for _, qcOn := range []bool{false, true} {
				name := fmt.Sprintf("n=%d/%s/qc=%v", features, shape.name, qcOn)
				t.Run(name, func(t *testing.T) {
					dense, dModel, dDB := buildPruneEngine(t, shape.on(t, pruneTestOpts(false)), net, vectors)
					pruned, pModel, pDB := buildPruneEngine(t, shape.on(t, pruneTestOpts(true)), net, vectors)
					if qcOn {
						qcn := pruneTestQCN()
						if err := dense.SetQC(qcn, 1.0, 16, 0.05); err != nil {
							t.Fatal(err)
						}
						if err := pruned.SetQC(qcn, 1.0, 16, 0.05); err != nil {
							t.Fatal(err)
						}
					}
					var totalSkipped int64
					hits := 0
					for qi, q := range queries {
						d := runQuery(t, dense, QuerySpec{QFV: q, K: pruneTestK, Model: dModel, DB: dDB})
						p := runQuery(t, pruned, QuerySpec{QFV: q, K: pruneTestK, Model: pModel, DB: pDB})
						label := fmt.Sprintf("query %d", qi)
						assertSameTopK(t, label, p.TopK, d.TopK)
						if p.CacheHit != d.CacheHit {
							t.Fatalf("%s: pruned hit=%v, dense hit=%v", label, p.CacheHit, d.CacheHit)
						}
						assertStageSum(t, label+" dense", d)
						assertStageSum(t, label+" pruned", p)
						if d.Prune != (PruneStats{}) {
							t.Fatalf("%s: dense engine reported prune stats %+v", label, d.Prune)
						}
						if hasStage(d, obs.StageBoundCheck) {
							t.Fatalf("%s: dense engine emitted a bound_check stage", label)
						}
						if p.CacheHit {
							hits++
							// Hit paths are identical end to end: same cached
							// results, same rerank, same lookup cost.
							if p.FeaturesScanned != d.FeaturesScanned || p.Latency != d.Latency {
								t.Fatalf("%s: hit paths diverge: scanned %d/%d, latency %v/%v",
									label, p.FeaturesScanned, d.FeaturesScanned, p.Latency, d.Latency)
							}
							continue
						}
						if !hasStage(p, obs.StageBoundCheck) {
							t.Fatalf("%s: pruned miss has no bound_check stage: %+v", label, p.Stages)
						}
						if got := p.FeaturesScanned + p.Prune.FeaturesSkipped; got != d.FeaturesScanned {
							t.Fatalf("%s: scanned %d + skipped %d = %d, dense scanned %d",
								label, p.FeaturesScanned, p.Prune.FeaturesSkipped, got, d.FeaturesScanned)
						}
						if p.Prune.StripesSkipped > p.Prune.StripesChecked {
							t.Fatalf("%s: skipped %d of %d checked stripes", label, p.Prune.StripesSkipped, p.Prune.StripesChecked)
						}
						totalSkipped += p.Prune.FeaturesSkipped
					}
					if totalSkipped == 0 {
						t.Fatal("pruning never skipped a feature on the clustered database")
					}
					if qcOn && hits == 0 {
						t.Fatal("repeated queries never hit the cache")
					}
					pSnap := pruned.MetricsSnapshot()
					if pSnap.Counters["core_prune_stripes_checked"] == 0 {
						t.Fatal("pruned engine recorded no core_prune_stripes_checked")
					}
					dSnap := dense.MetricsSnapshot()
					if dSnap.Counters["core_prune_stripes_checked"] != 0 || dSnap.Counters["core_prune_features_skipped"] != 0 {
						t.Fatalf("dense engine grew prune counters: %v", dSnap.Counters)
					}
				})
			}
		}
	}
}

// TestPrunedSubRanges: sub-range queries whose start/end fall mid-stripe must
// stay exact — partial stripes are covered by the full stripe's (superset)
// envelope, so the bound is looser but never unsound.
func TestPrunedSubRanges(t *testing.T) {
	const features = 67
	net := pruneTestNet()
	vectors := clusteredVectors(features, 4)
	dense, dModel, dDB := buildPruneEngine(t, pruneTestOpts(false), net, vectors)
	pruned, pModel, pDB := buildPruneEngine(t, pruneTestOpts(true), net, vectors)
	q := vectors[0]
	for _, c := range []struct {
		name       string
		start, end int64
	}{
		{"start=1", 1, features},
		{"end=n-1", 0, features - 1},
		{"both-mid", 1, features - 1},
		{"single-feature", 5, 6},
		{"mid-stripe-span", 3, 61},
		{"one-stripe-row", 8, 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := runQuery(t, dense, QuerySpec{QFV: q, K: pruneTestK, Model: dModel, DB: dDB, DBStart: c.start, DBEnd: c.end})
			p := runQuery(t, pruned, QuerySpec{QFV: q, K: pruneTestK, Model: pModel, DB: pDB, DBStart: c.start, DBEnd: c.end})
			assertSameTopK(t, c.name, p.TopK, d.TopK)
			if got := p.FeaturesScanned + p.Prune.FeaturesSkipped; got != c.end-c.start {
				t.Fatalf("scanned %d + skipped %d = %d, range is %d",
					p.FeaturesScanned, p.Prune.FeaturesSkipped, got, c.end-c.start)
			}
			if d.FeaturesScanned != c.end-c.start {
				t.Fatalf("dense scanned %d of a %d-feature range", d.FeaturesScanned, c.end-c.start)
			}
			assertStageSum(t, c.name, p)
		})
	}
}

// TestPrunedAppendRebuilds: appends must leave the bound table consistent
// with the grown database — queries after unaligned appends match both a
// dense engine and a freshly built pruned engine holding the same final data
// (same top-K AND same skip decisions; a stale table would differ or, worse,
// prune wrongly).
func TestPrunedAppendRebuilds(t *testing.T) {
	const features = 67
	net := pruneTestNet()
	vectors := clusteredVectors(features, 11)

	appended, aModel, aDB := buildPruneEngine(t, pruneTestOpts(true), net, vectors[:40])
	// Two unaligned appends: 40 → 47 dirties a partial stripe on some
	// channels, 47 → 67 grows the stripe count per channel.
	if err := appended.AppendDB(aDB, vectors[40:47]); err != nil {
		t.Fatal(err)
	}
	if err := appended.AppendDB(aDB, vectors[47:]); err != nil {
		t.Fatal(err)
	}
	fresh, fModel, fDB := buildPruneEngine(t, pruneTestOpts(true), net, vectors)
	dense, dModel, dDB := buildPruneEngine(t, pruneTestOpts(false), net, vectors)

	var skipped int64
	for qi, q := range [][]float32{vectors[0], vectors[45], vectors[66]} {
		a := runQuery(t, appended, QuerySpec{QFV: q, K: pruneTestK, Model: aModel, DB: aDB})
		f := runQuery(t, fresh, QuerySpec{QFV: q, K: pruneTestK, Model: fModel, DB: fDB})
		d := runQuery(t, dense, QuerySpec{QFV: q, K: pruneTestK, Model: dModel, DB: dDB})
		label := fmt.Sprintf("query %d", qi)
		assertSameTopK(t, label+" vs dense", a.TopK, d.TopK)
		assertSameTopK(t, label+" vs fresh", a.TopK, f.TopK)
		// The rebuilt table must equal a from-scratch build: identical
		// envelopes mean identical skip decisions, not merely identical
		// results.
		if a.Prune != f.Prune {
			t.Fatalf("%s: appended engine pruned %+v, fresh build %+v", label, a.Prune, f.Prune)
		}
		if a.FeaturesScanned != f.FeaturesScanned {
			t.Fatalf("%s: appended scanned %d, fresh %d", label, a.FeaturesScanned, f.FeaturesScanned)
		}
		skipped += a.Prune.FeaturesSkipped
	}
	if skipped == 0 {
		t.Fatal("append suite never skipped a feature")
	}
}

// TestPrunedReorgRebuilds: an in-storage reorganization moves every feature,
// so the whole table is rebuilt; queries after ReorgDB match a fresh pruned
// engine built directly on the reordered vectors.
func TestPrunedReorgRebuilds(t *testing.T) {
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

	moved, mModel, mDB := buildPruneEngine(t, pruneTestOpts(true), net, vectors)
	if err := moved.ReorgDB(mDB, order); err != nil {
		t.Fatal(err)
	}
	fresh, fModel, fDB := buildPruneEngine(t, pruneTestOpts(true), net, reordered)
	dense, dModel, dDB := buildPruneEngine(t, pruneTestOpts(false), net, reordered)

	for qi, q := range [][]float32{vectors[0], vectors[33]} {
		m := runQuery(t, moved, QuerySpec{QFV: q, K: pruneTestK, Model: mModel, DB: mDB})
		f := runQuery(t, fresh, QuerySpec{QFV: q, K: pruneTestK, Model: fModel, DB: fDB})
		d := runQuery(t, dense, QuerySpec{QFV: q, K: pruneTestK, Model: dModel, DB: dDB})
		label := fmt.Sprintf("query %d", qi)
		assertSameTopK(t, label+" vs dense", m.TopK, d.TopK)
		assertSameTopK(t, label+" vs fresh", m.TopK, f.TopK)
		if m.Prune != f.Prune {
			t.Fatalf("%s: reorged engine pruned %+v, fresh build %+v", label, m.Prune, f.Prune)
		}
	}
}

// TestPrunedQueryMultiMatchesDense: shared multi-query scans make per-query
// skip decisions, so each member's top-K and conservation law must match the
// dense engine, and the whole batch must match sequential pruned submission
// bit for bit (PR5's equivalence guarantee, now with the tier active).
func TestPrunedQueryMultiMatchesDense(t *testing.T) {
	const features = 131
	net := pruneTestNet()
	vectors := clusteredVectors(features, 17)
	for _, nq := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("Q=%d", nq), func(t *testing.T) {
			multi, mModel, mDB := buildPruneEngine(t, pruneTestOpts(true), net, vectors)
			seq, sModel, sDB := buildPruneEngine(t, pruneTestOpts(true), net, vectors)
			dense, dModel, dDB := buildPruneEngine(t, pruneTestOpts(false), net, vectors)

			specs := make([]QuerySpec, nq)
			for i := range specs {
				// Cycling with stride 13 repeats vectors for larger batches,
				// putting identical queries in one shared group.
				specs[i] = QuerySpec{QFV: vectors[(i*13)%features], K: pruneTestK, Model: mModel, DB: mDB}
			}
			ids, err := multi.QueryMulti(specs)
			if err != nil {
				t.Fatal(err)
			}
			var skipped int64
			for i, id := range ids {
				m, err := multi.GetResults(id)
				if err != nil {
					t.Fatal(err)
				}
				q := specs[i].QFV
				s := runQuery(t, seq, QuerySpec{QFV: q, K: pruneTestK, Model: sModel, DB: sDB})
				d := runQuery(t, dense, QuerySpec{QFV: q, K: pruneTestK, Model: dModel, DB: dDB})
				label := fmt.Sprintf("member %d", i)
				assertSameTopK(t, label+" vs dense", m.TopK, d.TopK)
				assertSameTopK(t, label+" vs sequential", m.TopK, s.TopK)
				if m.Prune != s.Prune {
					t.Fatalf("%s: multi pruned %+v, sequential %+v", label, m.Prune, s.Prune)
				}
				if m.Latency != s.Latency {
					t.Errorf("%s: multi latency %v, sequential %v", label, m.Latency, s.Latency)
				}
				if got := m.FeaturesScanned + m.Prune.FeaturesSkipped; got != d.FeaturesScanned {
					t.Fatalf("%s: scanned %d + skipped %d != dense %d",
						label, m.FeaturesScanned, m.Prune.FeaturesSkipped, d.FeaturesScanned)
				}
				if !hasStage(m, obs.StageSharedScan) {
					t.Fatalf("%s: no shared_scan stage: %+v", label, m.Stages)
				}
				if !hasStage(m, obs.StageBoundCheck) {
					t.Fatalf("%s: no bound_check stage: %+v", label, m.Stages)
				}
				assertStageSum(t, label, m)
				skipped += m.Prune.FeaturesSkipped
			}
			if skipped == 0 {
				t.Fatal("multi suite never skipped a feature")
			}
		})
	}
}

// TestPrunedQueryMultiWithCache: the shared-scan cache interleaving (pass 1
// inserts pending entries in submission order) must make the same hit
// decisions on a pruned engine as on a dense one, and hits must carry the
// same reranked results.
func TestPrunedQueryMultiWithCache(t *testing.T) {
	const features = 67
	net := pruneTestNet()
	qcn := pruneTestQCN()
	vectors := clusteredVectors(features, 23)
	build := func(prune bool) (*DeepStore, ModelID, ftl.DBID) {
		ds, model, dbID := buildPruneEngine(t, pruneTestOpts(prune), net, vectors)
		if err := ds.SetQC(qcn, 1.0, 16, 0.05); err != nil {
			t.Fatal(err)
		}
		return ds, model, dbID
	}
	pruned, pModel, pDB := build(true)
	dense, dModel, dDB := build(false)
	// Query 0 and 2 are identical: the second occurrence hits the pending
	// entry inserted by the first within the same batch.
	qis := []int{0, 30, 0, 61}
	pSpecs := make([]QuerySpec, len(qis))
	dSpecs := make([]QuerySpec, len(qis))
	for i, qi := range qis {
		pSpecs[i] = QuerySpec{QFV: vectors[qi], K: pruneTestK, Model: pModel, DB: pDB}
		dSpecs[i] = QuerySpec{QFV: vectors[qi], K: pruneTestK, Model: dModel, DB: dDB}
	}
	pIDs, err := pruned.QueryMulti(pSpecs)
	if err != nil {
		t.Fatal(err)
	}
	dIDs, err := dense.QueryMulti(dSpecs)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range pIDs {
		p, err := pruned.GetResults(pIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		d, err := dense.GetResults(dIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("member %d", i)
		assertSameTopK(t, label, p.TopK, d.TopK)
		if p.CacheHit != d.CacheHit {
			t.Fatalf("%s: pruned hit=%v, dense hit=%v", label, p.CacheHit, d.CacheHit)
		}
		if p.CacheHit {
			hits++
		}
		assertStageSum(t, label, p)
	}
	if hits == 0 {
		t.Fatal("duplicate in-batch query never hit the cache")
	}
}

// TestPrunedFaultsKeepResults: under injected flash read faults the pruned
// scan issues fewer reads, so fault draws — and therefore latencies — differ
// from the dense engine's; the results must not. (The equivalence contract
// under faults is results-only, as for shared scans.)
func TestPrunedFaultsKeepResults(t *testing.T) {
	const features = 131
	net := pruneTestNet()
	vectors := clusteredVectors(features, 29)
	build := func(prune bool, rate float64) (*DeepStore, ModelID, ftl.DBID) {
		opts := pruneTestOpts(prune)
		opts.Device.FlashFaults.ReadErrorRate = rate
		opts.Device.FlashFaults.Seed = 21
		return buildPruneEngine(t, opts, net, vectors)
	}
	faultyPruned, fpModel, fpDB := build(true, 0.3)
	faultyDense, fdModel, fdDB := build(false, 0.3)
	cleanPruned, cpModel, cpDB := build(true, 0)

	for qi, q := range [][]float32{vectors[0], vectors[70]} {
		fp := runQuery(t, faultyPruned, QuerySpec{QFV: q, K: pruneTestK, Model: fpModel, DB: fpDB})
		fd := runQuery(t, faultyDense, QuerySpec{QFV: q, K: pruneTestK, Model: fdModel, DB: fdDB})
		cp := runQuery(t, cleanPruned, QuerySpec{QFV: q, K: pruneTestK, Model: cpModel, DB: cpDB})
		label := fmt.Sprintf("query %d", qi)
		assertSameTopK(t, label+" faulty pruned vs faulty dense", fp.TopK, fd.TopK)
		assertSameTopK(t, label+" faulty pruned vs clean pruned", fp.TopK, cp.TopK)
		if fp.Prune != cp.Prune {
			t.Fatalf("%s: fault model changed skip decisions: %+v vs %+v", label, fp.Prune, cp.Prune)
		}
		assertStageSum(t, label, fp)
	}
	if faultyPruned.FlashStats().ReadRetries == 0 {
		t.Fatal("fault model injected no retries on the pruned engine")
	}
}
