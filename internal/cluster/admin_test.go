package cluster

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// TestAppendFailsAtomically: an append the tail shard's engine rejects
// (its database is interlocked by a migration) reports the error and
// mutates nothing — the generation, the routing table and the answers are
// unchanged.
func TestAppendFailsAtomically(t *testing.T) {
	const features, k = 120, 5
	live, db := enginesFixture(t, 2, features, core.DefaultOptions())
	oracle, _ := enginesFixture(t, 1, features, core.DefaultOptions())
	tailDB := live.Routes()[len(live.Routes())-1].DB
	if err := live.Engine(1).BeginMigration(tailDB); err != nil {
		t.Fatal(err)
	}
	genBefore := live.Gen()
	err := live.AppendDB(db.Vectors[:7])
	if !errors.Is(err, core.ErrMigrating) {
		t.Fatalf("append to an interlocked tail: %v, want core.ErrMigrating", err)
	}
	if live.Gen() != genBefore {
		t.Fatalf("failed append published generation %d (was %d)", live.Gen(), genBefore)
	}
	assertPartition(t, live, features)
	la, err := live.Query(db.Vectors[40], k)
	if err != nil {
		t.Fatal(err)
	}
	oa, err := oracle.Query(db.Vectors[40], k)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTopK(t, "post-failure", la, oa)
}

// TestReorgShard: a shard-level reorg rewrites the shard's local order and
// the cluster's scores stay bit-identical to the oracle across calls.
func TestReorgShard(t *testing.T) {
	const features, k = 120, 5
	live, db := enginesFixture(t, 2, features, core.DefaultOptions())
	oracle, _ := enginesFixture(t, 1, features, core.DefaultOptions())
	// Reverse shard 0's local order (features 0..59).
	n := int(live.Routes()[0].Count)
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	if err := live.ReorgShard(0, order); err != nil {
		t.Fatal(err)
	}
	// The oracle is unsharded, so its global indices are unchanged; a
	// reorged shard answers with LOCAL indices remapped through the same
	// route, so feature IDs in answers now reflect the new local order.
	// Compare scores only: the score set must be identical, order included,
	// because reordering within a shard cannot change any pairwise score.
	for call := 0; call < 4; call++ {
		la, err := live.Query(db.Vectors[10], k)
		if err != nil {
			t.Fatal(err)
		}
		oa, err := oracle.Query(db.Vectors[10], k)
		if err != nil {
			t.Fatal(err)
		}
		if len(la.TopK) != len(oa.TopK) {
			t.Fatalf("call %d: %d entries, want %d", call, len(la.TopK), len(oa.TopK))
		}
		for j := range la.TopK {
			if la.TopK[j].Score != oa.TopK[j].Score {
				t.Fatalf("call %d entry %d: score %v, want %v", call, j, la.TopK[j].Score, oa.TopK[j].Score)
			}
		}
	}
}
