package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// Satellite regression for the WriteDB/LoadModel vs Query interleaving bug:
// admin updates used to land shard by shard with no generation boundary, so
// a concurrent query could fan out over shard 0's NEW database and shard
// 1's OLD one and merge a chimera answer. With atomic generation publish, a
// query snapshots one complete topology: every answer must now be exactly
// the old cluster's answer or exactly the new one, never a mixture. Run
// under -race (CI does) to also catch unsynchronized state.

// answerKey flattens a ranking for set membership (ObjectIDs excluded: they
// are physical addresses and differ across placements).
func answerKey(a Answer) string {
	s := ""
	for _, e := range a.TopK {
		s += fmt.Sprintf("%d:%x;", e.FeatureID, e.Score)
	}
	return s
}

// refAnswer builds a fresh identical cluster over vecs and answers q once.
func refAnswer(t *testing.T, app *workload.App, vecs [][]float32, q []float32, k int) Answer {
	t.Helper()
	e, err := NewEngines(2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteDB(vecs); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadModel(app.SCN); err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(q, k)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// TestWriteDBRacingQueries races alternating WriteDB(A)/WriteDB(B) against
// concurrent queries: every answer must be bit-identical to the A-cluster's
// answer or the B-cluster's answer.
func TestWriteDBRacingQueries(t *testing.T) {
	const features, k, writes, readers, reads = 60, 5, 8, 4, 25
	app, err := workload.ByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(1)
	dbA := workload.NewFeatureDB(app, features, 11)
	dbB := workload.NewFeatureDB(app, features, 23)
	probe := dbA.Vectors[7]

	wantA := answerKey(refAnswer(t, app, dbA.Vectors, probe, k))
	wantB := answerKey(refAnswer(t, app, dbB.Vectors, probe, k))
	if wantA == wantB {
		t.Fatal("databases A and B answer identically; the test cannot detect mixtures")
	}

	e, err := NewEngines(2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteDB(dbA.Vectors); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadModel(app.SCN); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ans, err := e.Query(probe, k)
				if err != nil {
					errs <- err
					return
				}
				if got := answerKey(ans); got != wantA && got != wantB {
					errs <- fmt.Errorf("read %d merged a mixture of generations:\n got %s\nwantA %s\nwantB %s",
						i, got, wantA, wantB)
					return
				}
			}
		}()
	}
	for w := 0; w < writes; w++ {
		vecs := dbA.Vectors
		if w%2 == 0 {
			vecs = dbB.Vectors
		}
		if err := e.WriteDB(vecs); err != nil {
			close(stop)
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLoadModelRacingQueries races model swaps against queries: two
// differently initialized SCNs score the same database differently, and
// every concurrent answer must match exactly one of the two single-model
// clusters.
func TestLoadModelRacingQueries(t *testing.T) {
	const features, k, swaps, readers, reads = 60, 5, 6, 4, 20
	appA, err := workload.ByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	appA.SCN.InitRandom(1)
	appB, err := workload.ByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	appB.SCN.InitRandom(2)
	db := workload.NewFeatureDB(appA, features, 11)
	probe := db.Vectors[3]

	wantA := answerKey(refAnswer(t, appA, db.Vectors, probe, k))
	wantB := answerKey(refAnswer(t, appB, db.Vectors, probe, k))
	if wantA == wantB {
		t.Fatal("models A and B answer identically; the test cannot detect mixtures")
	}

	e, err := NewEngines(2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteDB(db.Vectors); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadModel(appA.SCN); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				ans, err := e.Query(probe, k)
				if err != nil {
					errs <- err
					return
				}
				if got := answerKey(ans); got != wantA && got != wantB {
					errs <- fmt.Errorf("read %d merged a mixture of models:\n got %s\nwantA %s\nwantB %s",
						i, got, wantA, wantB)
					return
				}
			}
		}()
	}
	for w := 0; w < swaps; w++ {
		net := appA.SCN
		if w%2 == 0 {
			net = appB.SCN
		}
		if err := e.LoadModel(net); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQueriesRacingRebalanceSteps races query goroutines against a
// rebalancer stepping on another goroutine: every answer must equal the
// unsplit oracle's, whatever generation it snapshotted.
func TestQueriesRacingRebalanceSteps(t *testing.T) {
	const features, k, readers, reads = 120, 5, 4, 15
	live, db := enginesFixture(t, 2, features, core.DefaultOptions())
	oracle, _ := enginesFixture(t, 1, features, core.DefaultOptions())
	probes := []int{0, 15, 45, 90}
	want := make([]string, len(probes))
	for i, p := range probes {
		ans, err := oracle.Query(db.Vectors[p], k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answerKey(ans)
	}
	rb, err := NewRebalancer(live, MoveSpec{Source: 0, Dest: AddShard, Start: 10, Count: 40, ChunkFeatures: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				pi := (r + i) % len(probes)
				ans, err := live.Query(db.Vectors[probes[pi]], k)
				if err != nil {
					errs <- err
					return
				}
				if got := answerKey(ans); got != want[pi] {
					errs <- fmt.Errorf("reader %d probe %d diverged mid-migration:\n got %s\nwant %s",
						r, probes[pi], got, want[pi])
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			done, err := rb.Step()
			if err != nil {
				errs <- err
				return
			}
			if done {
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if live.Shards() != 3 {
		t.Fatalf("%d shards after the race, want 3", live.Shards())
	}
	assertPartition(t, live, features)
	if n := live.MetricsSnapshot().Counters["cluster_stage_sum_mismatch"]; n != 0 {
		t.Fatalf("stage-sum invariant broke %d times", n)
	}
}

// TestSetToleranceRacingQueries races fault-policy swaps against queries.
// The policy is part of the published generation, so every call runs under
// exactly one policy: rate 0 answers in full, rate 1 fails every shard, and
// no answer merges shards that drew under different policies.
func TestSetToleranceRacingQueries(t *testing.T) {
	const features, k, swaps, readers, reads = 60, 5, 40, 4, 25
	e, db := enginesFixture(t, 2, features, core.DefaultOptions())
	probe := db.Vectors[7]
	clean, err := e.Query(probe, k)
	if err != nil {
		t.Fatal(err)
	}
	want := answerKey(clean)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				ans, err := e.Query(probe, k)
				switch {
				case err != nil && !errors.Is(err, fault.ErrInjected):
					errs <- err
					return
				case err == nil && (ans.Degraded || answerKey(ans) != want):
					errs <- fmt.Errorf("read %d ran under two fault policies: failed shards %v", i, ans.FailedShards)
					return
				}
			}
		}()
	}
	for w := 0; w < swaps; w++ {
		tol := Tolerance{}
		if w%2 == 0 {
			tol = Tolerance{FaultRate: 1, FaultSeed: int64(w)}
		}
		if err := e.SetTolerance(tol); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
