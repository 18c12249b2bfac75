package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// loadArtifact decodes the checked-in BENCH_<name>.json into the study's
// typed rows. Unknown fields are rejected and the rows must re-encode to the
// file's exact bytes, so the schema check runs both ways: no stray key, no
// missing one.
func loadArtifact[R any](t *testing.T, name string) []R {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rows []R
	if err := dec.Decode(&rows); err != nil {
		t.Fatalf("BENCH_%s.json: %v", name, err)
	}
	if len(rows) == 0 {
		t.Fatalf("BENCH_%s.json: empty artifact", name)
	}
	if again, err := indentJSON(rows); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("BENCH_%s.json does not round-trip through its row type (%v):\n%s", name, err, again)
	}
	return rows
}

// TestCheckedInArtifacts holds every headline claim of the seven baselines
// against the bytes in git. CI regenerates the files and fails on any diff,
// so a claim that holds here holds for the code at this commit.
func TestCheckedInArtifacts(t *testing.T) {
	for _, c := range []struct {
		name  string
		check func(*testing.T)
	}{
		{"faults", func(t *testing.T) {
			rows := loadArtifact[FaultsRow](t, "faults")
			for _, r := range rows {
				if r.Queries <= 0 || r.P50Ms <= 0 || r.P99Ms < r.P50Ms {
					t.Errorf("implausible row %+v", r)
				}
			}
			if c := rows[0]; c.Rate != 0 || c.Degraded != 0 || c.ShardFailures != 0 || c.Errors != 0 {
				t.Errorf("fault-free row not clean: %+v", c)
			}
		}},
		// Batching 16 queries per shared sweep at least doubles simulated
		// queries/second.
		{"mq", func(t *testing.T) {
			byQ := map[int]MQRow{}
			for _, r := range loadArtifact[MQRow](t, "mq") {
				if r.SimSec <= 0 || r.QueriesSec <= 0 {
					t.Errorf("implausible row %+v", r)
				}
				byQ[r.Q] = r
			}
			if byQ[1].SpeedupVsQ1 != 1 {
				t.Errorf("Q=1 baseline %+v", byQ[1])
			}
			if byQ[16].SpeedupVsQ1 < 2 {
				t.Errorf("Q=16 speedup %.2fx below 2x", byQ[16].SpeedupVsQ1)
			}
		}},
		// On the Zipfian trace the bound tier skips a nonzero share of the
		// corpus with zero top-K mismatches, covering features at least as
		// fast as the dense engine.
		{"prune", func(t *testing.T) {
			by := map[string]PruneRow{}
			for _, r := range loadArtifact[PruneRow](t, "prune") {
				if r.SimSec <= 0 || r.FeaturesSec <= 0 {
					t.Errorf("implausible row %+v", r)
				}
				if r.Mismatches != 0 {
					t.Errorf("top-K mismatches vs dense: %+v", r)
				}
				by[r.Trace+"/"+r.Mode] = r
			}
			z := by["zipfian/pruned"]
			if z.SkipRate <= 0 {
				t.Errorf("no stripes skipped on zipfian: %+v", z)
			}
			if z.StripesSkipped > z.StripesChecked {
				t.Errorf("skipped more stripes than checked: %+v", z)
			}
			if z.FeaturesSec < by["zipfian/dense"].FeaturesSec {
				t.Errorf("pruned %v features/s below dense %v", z.FeaturesSec, by["zipfian/dense"].FeaturesSec)
			}
		}},
		// The int8 table covers the corpus at least 1.5x as fast as fp32
		// with recall@K of at least 0.95, and the two-pass exact mode has
		// zero mismatches while keeping the int8 throughput win.
		{"quant", func(t *testing.T) {
			by := map[string]QuantRow{}
			for _, r := range loadArtifact[QuantRow](t, "quant") {
				if r.SimSec <= 0 || r.FeaturesSec <= 0 {
					t.Errorf("implausible row %+v", r)
				}
				by[r.Mode] = r
			}
			if by["fp32"].SpeedupVsFP32 != 1 {
				t.Errorf("fp32 baseline %+v", by["fp32"])
			}
			if a := by["int8"]; a.SpeedupVsFP32 < 1.5 || a.RecallAtK < 0.95 {
				t.Errorf("int8 speedup %.2fx (want >= 1.5x), recall@K %.3f (want >= 0.95)", a.SpeedupVsFP32, a.RecallAtK)
			}
			if e := by["int8-exact"]; e.Mismatches != 0 || e.RecallAtK != 1 || e.FeaturesSec < by["fp32"].FeaturesSec {
				t.Errorf("two-pass mode not exact or slower than fp32: %+v", e)
			}
		}},
		// At >= 2x aggregate overload across >= 3 unequal-weight tenants,
		// every within-budget tenant keeps its p99 within 1.1x of running
		// alone with nothing shed, goodput stays positive, shedding engages,
		// and every served answer is bit-identical to a direct Query.
		{"serve", func(t *testing.T) {
			rows := loadArtifact[ServeRow](t, "serve")
			weights, overloads := map[float64]bool{}, map[float64]bool{}
			var shed int64
			var goodput float64
			within := 0
			for _, r := range rows {
				if int64(r.Arrivals) != r.Served+r.Shed {
					t.Errorf("%s: arrivals %d != served %d + shed %d", r.Tenant, r.Arrivals, r.Served, r.Shed)
				}
				if r.P99ms <= 0 || r.P99ms < r.P50ms {
					t.Errorf("%s: implausible quantiles p50=%v p99=%v", r.Tenant, r.P50ms, r.P99ms)
				}
				if r.Mismatches != 0 {
					t.Errorf("%s: answers diverged from Query: %+v", r.Tenant, r)
				}
				weights[r.Weight], overloads[r.OverloadX] = true, true
				shed += r.Shed
				goodput += r.GoodputQPS
				if r.WithinBudget {
					within++
					if r.Shed != 0 || r.P99VsAlone > 1.1 {
						t.Errorf("within-budget tenant %s: shed %d, p99 %.2fx alone (bound 1.1x)", r.Tenant, r.Shed, r.P99VsAlone)
					}
				}
			}
			if len(rows) < 3 || len(weights) < 3 {
				t.Errorf("%d tenants with %d distinct weights, want >= 3 unequal", len(rows), len(weights))
			}
			if len(overloads) != 1 || rows[0].OverloadX < 2 {
				t.Errorf("overload_x %v: want one run-level value >= 2", overloads)
			}
			if shed == 0 || goodput <= 0 || within == 0 {
				t.Errorf("shed %d, goodput %v, %d tenants within budget: want all positive", shed, goodput, within)
			}
		}},
		// Three phases, zero oracle mismatches in each (the bit-identical
		// guarantee under live migration), a real move, the shard count and
		// routing generation growing, and the during-migration p99 within
		// 1.5x the quiesced baseline.
		{"rebalance", func(t *testing.T) {
			rows := loadArtifact[RebalanceRow](t, "rebalance")
			if len(rows) != 3 || rows[0].Phase != "before" || rows[1].Phase != "during" || rows[2].Phase != "after" {
				t.Fatalf("phases %+v, want before/during/after", rows)
			}
			for _, r := range rows {
				if r.Queries <= 0 || r.P50Ms <= 0 || r.P99Ms < r.P50Ms {
					t.Errorf("implausible row %+v", r)
				}
				if r.Mismatches != 0 {
					t.Errorf("answers diverged from oracle: %+v", r)
				}
			}
			before, during, after := rows[0], rows[1], rows[2]
			if before.P99VsQuiesced != 1 {
				t.Errorf("before p99 ratio %v, want 1", before.P99VsQuiesced)
			}
			if after.Shards != during.Shards || during.Shards <= before.Shards {
				t.Errorf("shards %d/%d/%d: migration never grew the cluster", before.Shards, during.Shards, after.Shards)
			}
			if during.Gen <= before.Gen {
				t.Errorf("routing generation never advanced: %d -> %d", before.Gen, during.Gen)
			}
			if during.MovedFeatures <= 0 || during.Chunks <= 0 || during.SrcReadMs <= 0 || during.DstWriteMs <= 0 {
				t.Errorf("nothing moved, or the move charged no device time: %+v", during)
			}
			if during.P99VsQuiesced > 1.5 {
				t.Errorf("during-migration p99 %.2fx quiesced (bound 1.5x)", during.P99VsQuiesced)
			}
		}},
		// Learned admission beats plain LRU hit-rate on the Zipfian trace,
		// every engine appends one history record per query, the learned
		// engines hold a model, and no miss-path answer diverged from the
		// oracle.
		{"qhist", func(t *testing.T) {
			by := map[string]QHistRow{}
			for _, r := range loadArtifact[QHistRow](t, "qhist") {
				if r.Hits+r.Misses != uint64(r.Queries) || r.Records != uint64(r.Queries) {
					t.Errorf("hits+misses or history records != queries: %+v", r)
				}
				if r.MissMismatches != 0 {
					t.Errorf("miss-path answers diverged from oracle: %+v", r)
				}
				if r.Policy == "learned" && r.Groups == 0 {
					t.Errorf("empty admission model: %+v", r)
				}
				by[r.Trace+"/"+r.Policy] = r
			}
			lru, learned := by["zipfian/lru"], by["zipfian/learned"]
			if learned.HitRate <= lru.HitRate {
				t.Errorf("learned %.3f did not beat LRU %.3f on zipfian", learned.HitRate, lru.HitRate)
			}
			if learned.AdmissionRejects == 0 {
				t.Error("learned admission never rejected an insert")
			}
		}},
	} {
		t.Run(c.name, c.check)
	}
}
