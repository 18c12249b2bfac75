package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// assertSameTopK compares two answers' rankings. ObjectIDs are physical
// flash addresses and legitimately differ between placements, so the
// bit-identical guarantee covers (FeatureID, Score).
func assertSameTopK(t *testing.T, label string, got, want Answer) {
	t.Helper()
	if len(got.TopK) != len(want.TopK) {
		t.Fatalf("%s: %d entries, want %d", label, len(got.TopK), len(want.TopK))
	}
	for j := range want.TopK {
		if got.TopK[j].FeatureID != want.TopK[j].FeatureID || got.TopK[j].Score != want.TopK[j].Score {
			t.Fatalf("%s entry %d: (%d, %v) != (%d, %v)", label, j,
				got.TopK[j].FeatureID, got.TopK[j].Score, want.TopK[j].FeatureID, want.TopK[j].Score)
		}
	}
}

// TestQueriesRacingMigration is the migration-correctness suite: across
// every shape of the shards' scan (64-row gather batches, one feature per
// scorer call, a single worker), with and without the pruning tier and the two-pass
// quantized path, and across batch sizes Q ∈ {1, 7, 64}, queries running
// while a chunked migration flips routes under them must (a) stay
// bit-identical to an unsplit oracle, (b) keep every sub-query's stage sum
// equal to its latency, and (c) conserve scanned+skipped features across
// the split boundary.
func TestQueriesRacingMigration(t *testing.T) {
	const features, k = 330, 5
	type variant struct {
		name string
		mut  func(*core.Options)
	}
	variants := []variant{
		{"dense", func(o *core.Options) {}},
		{"prune", func(o *core.Options) { o.Prune = true; o.PruneStripeFeatures = 16 }},
		{"quant-rerank", func(o *core.Options) { o.Quantized = true; o.RerankMargin = 4 }},
		{"prune-quant-rerank", func(o *core.Options) {
			o.Prune = true
			o.PruneStripeFeatures = 16
			o.Quantized = true
			o.RerankMargin = 4
		}},
	}
	// The shapes mirror core's scanShapes. The gather width is core's own
	// business (its golden table proves results do not depend on it), so
	// "per-feature" runs at the default width here, like "batched".
	for _, shape := range []struct {
		name  string
		procs int
	}{{name: "batched"}, {name: "per-feature"}, {name: "serial", procs: 1}} {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/%s", shape.name, v.name), func(t *testing.T) {
				opts := core.DefaultOptions()
				if shape.procs > 0 {
					// The scan runs one worker per GOMAXPROCS.
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shape.procs))
				}
				v.mut(&opts)
				live, db := enginesFixture(t, 2, features, opts)
				oracle, _ := enginesFixture(t, 1, features, opts)

				// Move a mid-range window out of shard 0 in 3 chunks,
				// stepping between query batches so the batches observe
				// pre-move, mid-move (split routes), and post-move
				// generations.
				rb, err := NewRebalancer(live, MoveSpec{
					Source: 0, Dest: AddShard, Start: 40, Count: 90, ChunkFeatures: 30,
				})
				if err != nil {
					t.Fatal(err)
				}
				done := false
				step := func() {
					if done {
						return
					}
					var err error
					if done, err = rb.Step(); err != nil {
						t.Fatal(err)
					}
				}
				qi := 0
				for _, q := range []int{1, 7, 64} {
					qfvs := make([][]float32, q)
					for i := range qfvs {
						qfvs[i] = db.Vectors[(qi*37)%features]
						qi++
					}
					la, err := live.Queries(qfvs, k)
					if err != nil {
						t.Fatal(err)
					}
					oa := queryEach(t, oracle, qfvs, k)
					for i := range la {
						assertSameTopK(t, fmt.Sprintf("Q=%d query %d", q, i), la[i], oa[i])
						if got := la[i].FeaturesScanned + la[i].Prune.FeaturesSkipped; got != int64(features) {
							t.Fatalf("Q=%d query %d: scanned %d + skipped %d = %d, want %d",
								q, i, la[i].FeaturesScanned, la[i].Prune.FeaturesSkipped, got, features)
						}
						if la[i].Makespan <= 0 {
							t.Fatalf("Q=%d query %d: non-positive makespan", q, i)
						}
					}
					step()
				}
				for !done {
					step()
				}
				// Finished: 4 routes (0..40 | moved 40..130 | 130..165 | shard 1).
				if live.Shards() != 3 {
					t.Fatalf("%d shards after AddShard move, want 3", live.Shards())
				}
				assertPartition(t, live, int64(features))
				// Post-move queries still match, including ranges on the new
				// shard.
				la, err := live.Queries([][]float32{db.Vectors[41], db.Vectors[129]}, k)
				if err != nil {
					t.Fatal(err)
				}
				oa, err := oracle.Queries([][]float32{db.Vectors[41], db.Vectors[129]}, k)
				if err != nil {
					t.Fatal(err)
				}
				for i := range la {
					assertSameTopK(t, fmt.Sprintf("post-move query %d", i), la[i], oa[i])
				}
				if n := live.MetricsSnapshot().Counters["cluster_stage_sum_mismatch"]; n != 0 {
					t.Fatalf("stage-sum invariant broke %d times during migration", n)
				}
			})
		}
	}
}

// assertPartition checks the routing table is sorted and covers [0, total)
// without gap or overlap.
func assertPartition(t *testing.T, e *Engines, total int64) {
	t.Helper()
	routes := e.Routes()
	if len(routes) == 0 {
		t.Fatal("empty routing table")
	}
	var at int64
	for i, r := range routes {
		if r.Global != at {
			t.Fatalf("route %d starts at %d, want %d (gap or overlap)", i, r.Global, at)
		}
		if r.Count < 1 {
			t.Fatalf("route %d empty", i)
		}
		at += r.Count
	}
	if at != total {
		t.Fatalf("routes cover [0, %d), want [0, %d)", at, total)
	}
	if e.Features() != total {
		t.Fatalf("Features() = %d, want %d", e.Features(), total)
	}
}

// TestRebalanceToExistingShard moves a range between the two original
// shards (no topology growth) and checks answers and accounting.
func TestRebalanceToExistingShard(t *testing.T) {
	const features, k = 240, 5
	live, db := enginesFixture(t, 2, features, core.DefaultOptions())
	oracle, _ := enginesFixture(t, 1, features, core.DefaultOptions())
	rep, err := live.Rebalance(MoveSpec{Source: 0, Dest: 1, Start: 0, Count: 60, ChunkFeatures: 25})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved != 60 || rep.Chunks != 3 {
		t.Fatalf("moved %d in %d chunks, want 60 in 3", rep.Moved, rep.Chunks)
	}
	if rep.Dest != 1 {
		t.Fatalf("dest %d, want 1", rep.Dest)
	}
	if rep.SrcRead <= 0 || rep.DstWrite <= 0 {
		t.Fatalf("migration device time src=%v dst=%v, want both > 0", rep.SrcRead, rep.DstWrite)
	}
	if live.Shards() != 2 {
		t.Fatalf("%d shards, want 2 (moved to an existing shard)", live.Shards())
	}
	assertPartition(t, live, features)
	// The source engine charged migration reads; the destination's engine
	// holds the chunk databases.
	src := live.Engine(0).MetricsSnapshot().Counters
	if src["core_migrate_reads"] != 3 || src["core_migrate_features_out"] != 60 {
		t.Fatalf("source migration counters %d reads / %d features, want 3 / 60",
			src["core_migrate_reads"], src["core_migrate_features_out"])
	}
	if src["core_migrate_pages_out"] <= 0 {
		t.Fatal("no migration pages charged on the source")
	}
	for _, q := range []int{0, 30, 59, 60, 150} {
		la, err := live.Query(db.Vectors[q], k)
		if err != nil {
			t.Fatal(err)
		}
		oa, err := oracle.Query(db.Vectors[q], k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTopK(t, fmt.Sprintf("query %d", q), la, oa)
	}
}

// TestRebalanceInterlocks: while a Rebalancer is active every admin path is
// rejected — cluster-level ops with ErrRebalanceActive, source-database
// mutations with core.ErrMigrating — and all of them work again after the
// move completes.
func TestRebalanceInterlocks(t *testing.T) {
	const features = 200
	live, db := enginesFixture(t, 2, features, core.DefaultOptions())
	rb, err := NewRebalancer(live, MoveSpec{Source: 0, Dest: AddShard, Start: 10, Count: 40, ChunkFeatures: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.WriteDB(db.Vectors); !errors.Is(err, ErrRebalanceActive) {
		t.Fatalf("WriteDB during rebalance: %v, want ErrRebalanceActive", err)
	}
	if err := live.AppendDB(db.Vectors[:4]); !errors.Is(err, ErrRebalanceActive) {
		t.Fatalf("AppendDB during rebalance: %v, want ErrRebalanceActive", err)
	}
	if err := live.ReorgShard(1, nil); !errors.Is(err, ErrRebalanceActive) {
		t.Fatalf("ReorgShard during rebalance: %v, want ErrRebalanceActive", err)
	}
	app, _ := workload.ByName("TextQA")
	if err := live.LoadModel(app.SCN); !errors.Is(err, ErrRebalanceActive) {
		t.Fatalf("LoadModel during rebalance: %v, want ErrRebalanceActive", err)
	}
	if _, err := NewRebalancer(live, MoveSpec{Source: 1, Dest: AddShard, Start: 120, Count: 10}); !errors.Is(err, ErrRebalanceActive) {
		t.Fatalf("second Rebalancer: %v, want ErrRebalanceActive", err)
	}
	// The source database itself is interlocked.
	srcDB := live.Routes()[0].DB
	if err := live.Engine(0).AppendDB(srcDB, db.Vectors[:1]); !errors.Is(err, core.ErrMigrating) {
		t.Fatalf("source AppendDB during migration: %v, want core.ErrMigrating", err)
	}
	if err := live.Engine(0).DeleteDB(srcDB); !errors.Is(err, core.ErrMigrating) {
		t.Fatalf("source DeleteDB during migration: %v, want core.ErrMigrating", err)
	}
	for done := false; !done; {
		if done, err = rb.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Released: the tail shard's append path works again (shard 1 owns the
	// tail route and was untouched by the move).
	if err := live.AppendDB(db.Vectors[:4]); err != nil {
		t.Fatal(err)
	}
	assertPartition(t, live, features+4)
}

// TestRebalanceAbort: aborting after one of three chunks keeps the flipped
// chunk on the destination (still answering correctly) and releases every
// interlock; aborting before any chunk removes a freshly added shard again.
func TestRebalanceAbort(t *testing.T) {
	const features, k = 240, 5
	live, db := enginesFixture(t, 2, features, core.DefaultOptions())
	oracle, _ := enginesFixture(t, 1, features, core.DefaultOptions())

	rb, err := NewRebalancer(live, MoveSpec{Source: 0, Dest: AddShard, Start: 20, Count: 90, ChunkFeatures: 30})
	if err != nil {
		t.Fatal(err)
	}
	if done, err := rb.Step(); err != nil || done {
		t.Fatalf("first chunk: done=%v err=%v", done, err)
	}
	rb.Abort()
	rep := rb.Report()
	if rep.Moved != 30 {
		t.Fatalf("aborted after %d features, want 30", rep.Moved)
	}
	if live.Shards() != 3 {
		t.Fatalf("%d shards, want 3 (dest received a chunk, cannot be removed)", live.Shards())
	}
	assertPartition(t, live, features)
	for _, q := range []int{0, 25, 49, 50, 120} {
		la, err := live.Query(db.Vectors[q], k)
		if err != nil {
			t.Fatal(err)
		}
		oa, err := oracle.Query(db.Vectors[q], k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTopK(t, fmt.Sprintf("post-abort query %d", q), la, oa)
	}
	// Interlocks released: a new move can start; abort it untouched and the
	// added shard is removed again.
	rb2, err := NewRebalancer(live, MoveSpec{Source: 1, Dest: AddShard, Start: 150, Count: 30})
	if err != nil {
		t.Fatal(err)
	}
	if live.Shards() != 4 {
		t.Fatalf("%d shards with second move pending, want 4", live.Shards())
	}
	rb2.Abort()
	if live.Shards() != 3 {
		t.Fatalf("%d shards after clean abort, want 3 (unused shard removed)", live.Shards())
	}
	assertPartition(t, live, features)
}

// TestRebalanceValidation: malformed specs are rejected up front.
func TestRebalanceValidation(t *testing.T) {
	const features = 200
	live, _ := enginesFixture(t, 2, features, core.DefaultOptions())
	bad := []MoveSpec{
		{Source: 0, Dest: AddShard, Start: 0, Count: 0},                     // empty
		{Source: 0, Dest: AddShard, Start: 0, Count: -1},                    // negative
		{Source: 0, Dest: AddShard, Start: 50, Count: 100},                  // spans two routes
		{Source: 0, Dest: AddShard, Start: 150, Count: 100},                 // past the end
		{Source: 1, Dest: AddShard, Start: 0, Count: 10},                    // wrong owner
		{Source: 0, Dest: 0, Start: 0, Count: 10},                           // dest == source
		{Source: 0, Dest: 7, Start: 0, Count: 10},                           // no such shard
		{Source: 0, Dest: -2, Start: 0, Count: 10},                          // bad sentinel
		{Source: 0, Dest: AddShard, Start: 0, Count: 10, ChunkFeatures: -5}, // bad chunk
	}
	for i, spec := range bad {
		if _, err := NewRebalancer(live, spec); err == nil {
			t.Errorf("spec %d (%+v) accepted", i, spec)
		}
	}
	if live.Shards() != 2 {
		t.Fatalf("rejected specs changed the topology: %d shards", live.Shards())
	}
	if live.MetricsSnapshot().Counters["cluster_migrate_chunks"] != 0 {
		t.Fatal("rejected specs migrated chunks")
	}
}

// TestPlanRebalance: demand concentrated on one region of shard 0 makes the
// planner propose moving exactly that region's window.
func TestPlanRebalance(t *testing.T) {
	const features, k = 240, 5
	live, db := enginesFixture(t, 2, features, core.DefaultOptions())
	if _, err := live.PlanRebalance(10, 2); err == nil {
		t.Fatal("plan with no accumulated demand accepted")
	}
	// Self-queries of features 30..49 concentrate top-K hits around that
	// window of shard 0 (each self-comparison surfaces its own index and
	// near neighbors).
	for q := 30; q < 50; q++ {
		if _, err := live.Query(db.Vectors[q], k); err != nil {
			t.Fatal(err)
		}
	}
	heat := live.Heat()
	if len(heat) != features {
		t.Fatalf("heat profile over %d features, want %d", len(heat), features)
	}
	spec, err := live.PlanRebalance(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Source != 0 || spec.Dest != AddShard {
		t.Fatalf("plan %+v, want a move off shard 0 to a new shard", spec)
	}
	if spec.Count != 20 || spec.ChunkFeatures != 10 {
		t.Fatalf("plan %+v, want a 20-feature window in 10-feature chunks", spec)
	}
	// The chosen window must overlap the hot region.
	if spec.Start >= 50 || spec.Start+spec.Count <= 30 {
		t.Fatalf("plan window [%d, %d) misses the hot region [30, 50)", spec.Start, spec.Start+spec.Count)
	}
	if _, err := live.Rebalance(spec); err != nil {
		t.Fatal(err)
	}
	assertPartition(t, live, features)
}

// TestAppendAfterSplit: cluster appends interleave with migrations — the
// tail route tracks whichever database currently ends the global space, and
// appended features answer identically to an unsplit oracle given the same
// appends.
func TestAppendAfterSplit(t *testing.T) {
	const features, k = 200, 5
	live, db := enginesFixture(t, 2, features, core.DefaultOptions())
	oracle, _ := enginesFixture(t, 1, features, core.DefaultOptions())
	// Move shard 1's tail range to a new shard: the global tail is now the
	// moved chunk's fresh database, which appends must extend.
	if _, err := live.Rebalance(MoveSpec{Source: 1, Dest: AddShard, Start: 160, Count: 40}); err != nil {
		t.Fatal(err)
	}
	extra := db.Vectors[:6]
	if err := live.AppendDB(extra); err != nil {
		t.Fatal(err)
	}
	if err := oracle.AppendDB(extra); err != nil {
		t.Fatal(err)
	}
	assertPartition(t, live, features+6)
	// Move part of the appended tail onward and append again.
	if _, err := live.Rebalance(MoveSpec{Source: 2, Dest: 0, Start: 186, Count: 20}); err != nil {
		t.Fatal(err)
	}
	if err := live.AppendDB(extra); err != nil {
		t.Fatal(err)
	}
	if err := oracle.AppendDB(extra); err != nil {
		t.Fatal(err)
	}
	assertPartition(t, live, features+12)
	for _, q := range []int{0, 159, 160, 185, 199} {
		la, err := live.Query(db.Vectors[q], k)
		if err != nil {
			t.Fatal(err)
		}
		oa, err := oracle.Query(db.Vectors[q], k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTopK(t, fmt.Sprintf("query %d", q), la, oa)
	}
}
