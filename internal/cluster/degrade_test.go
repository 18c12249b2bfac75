package cluster

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// expectedEngineFaults mirrors the injection schedule of Engines.Queries:
// call c, shard s draws Fork("call<c>-shard<s>") against FaultRate, so tests
// can predict the failure pattern from the seed alone.
func expectedEngineFaults(tol Tolerance, call uint64, shards int) (failed []int) {
	root := fault.New(tol.FaultSeed)
	for s := 0; s < shards; s++ {
		if root.Forkf("call%d-shard%d", call, s).Hit(tol.FaultRate) {
			failed = append(failed, s)
		}
	}
	return failed
}

// shardSlices reproduces Engines.WriteDB's contiguous balanced split.
func shardSlices(features [][]float32, n int) (slices [][][]float32, offsets []int64) {
	var off int64
	for s := int64(0); s < int64(n); s++ {
		share := int64(len(features)) / int64(n)
		if s < int64(len(features))%int64(n) {
			share++
		}
		slices = append(slices, features[off:off+share])
		offsets = append(offsets, off)
		off += share
	}
	return slices, offsets
}

// TestEnginesDegradedDeterministic is the headline acceptance test: a
// 4-shard cluster at 10% per-shard fault rate under a fixed seed returns
// deterministic partial results flagged Degraded with the failed shards
// listed, and each degraded answer equals a single engine run over the
// healthy shards' slices (IDs remapped to global coordinates).
func TestEnginesDegradedDeterministic(t *testing.T) {
	const shards, features, k, calls = 4, 600, 7, 20
	tol := Tolerance{FaultRate: 0.10, FaultSeed: 7}

	run := func() ([][]int, [][]int64, [][]float32) {
		t.Helper()
		e, db := enginesFixture(t, shards, features, core.DefaultOptions())
		if err := e.SetTolerance(tol); err != nil {
			t.Fatal(err)
		}
		var failedPer [][]int
		var idsPer [][]int64
		var scoresPer [][]float32
		for c := 0; c < calls; c++ {
			ans, err := e.Query(db.Vectors[33], k)
			if err != nil {
				t.Fatalf("call %d: %v", c, err)
			}
			failedPer = append(failedPer, ans.FailedShards)
			var ids []int64
			var scores []float32
			for _, entry := range ans.TopK {
				ids = append(ids, entry.FeatureID)
				scores = append(scores, entry.Score)
			}
			idsPer = append(idsPer, ids)
			scoresPer = append(scoresPer, scores)
			if ans.Degraded != (len(ans.FailedShards) > 0) {
				t.Fatalf("call %d: Degraded=%v with failed shards %v", c, ans.Degraded, ans.FailedShards)
			}
			if ans.Degraded {
				if !errors.Is(ans.ShardErrs, fault.ErrInjected) {
					t.Fatalf("call %d: ShardErrs %v does not wrap fault.ErrInjected", c, ans.ShardErrs)
				}
				if ans.Makespan <= 0 {
					t.Fatalf("call %d: degraded answer has non-positive makespan", c)
				}
			} else if ans.ShardErrs != nil {
				t.Fatalf("call %d: healthy answer carries ShardErrs %v", c, ans.ShardErrs)
			}
		}
		return failedPer, idsPer, scoresPer
	}

	failedA, idsA, scoresA := run()
	failedB, idsB, scoresB := run()

	degraded, clean := 0, 0
	for c := 0; c < calls; c++ {
		// The failure schedule must match the documented injection contract.
		want := expectedEngineFaults(tol, uint64(c), shards)
		if len(want) != len(failedA[c]) {
			t.Fatalf("call %d: failed shards %v, schedule predicts %v", c, failedA[c], want)
		}
		for i := range want {
			if failedA[c][i] != want[i] {
				t.Fatalf("call %d: failed shards %v, schedule predicts %v", c, failedA[c], want)
			}
		}
		// Bit-identical across runs of the same seed.
		if len(failedA[c]) != len(failedB[c]) || len(idsA[c]) != len(idsB[c]) {
			t.Fatalf("call %d: runs diverged (%v vs %v)", c, failedA[c], failedB[c])
		}
		for i := range idsA[c] {
			if idsA[c][i] != idsB[c][i] || scoresA[c][i] != scoresB[c][i] {
				t.Fatalf("call %d entry %d: runs diverged", c, i)
			}
		}
		if len(failedA[c]) > 0 {
			degraded++
		} else {
			clean++
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded call in the schedule; pick another seed")
	}
	if clean == 0 {
		t.Fatal("no clean call in the schedule; pick another seed")
	}

	// Healthy-subset oracle: for each degraded call, a single engine over
	// the surviving shards' contiguous slices must give the same answer
	// after remapping its IDs through the shard offsets.
	app, err := workload.ByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(1)
	db := workload.NewFeatureDB(app, features, 11)
	slices, offsets := shardSlices(db.Vectors, shards)
	for c := 0; c < calls; c++ {
		if len(failedA[c]) == 0 {
			continue
		}
		failedSet := make(map[int]bool)
		for _, s := range failedA[c] {
			failedSet[s] = true
		}
		var healthyVecs [][]float32
		var globalIdx []int64
		for s := 0; s < shards; s++ {
			if failedSet[s] {
				continue
			}
			for i := range slices[s] {
				healthyVecs = append(healthyVecs, slices[s][i])
				globalIdx = append(globalIdx, offsets[s]+int64(i))
			}
		}
		single, err := core.New(core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		dbID, err := single.WriteDB(healthyVecs)
		if err != nil {
			t.Fatal(err)
		}
		model, err := single.LoadModelNetwork(app.SCN)
		if err != nil {
			t.Fatal(err)
		}
		qid, err := single.Query(core.QuerySpec{QFV: db.Vectors[33], K: k, Model: model, DB: dbID})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := single.GetResults(qid)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.TopK) != len(idsA[c]) {
			t.Fatalf("call %d: degraded answer has %d entries, oracle %d", c, len(idsA[c]), len(ref.TopK))
		}
		for i, entry := range ref.TopK {
			if want := globalIdx[entry.FeatureID]; idsA[c][i] != want || scoresA[c][i] != entry.Score {
				t.Fatalf("call %d entry %d: degraded (%d, %v) != oracle (%d, %v)",
					c, i, idsA[c][i], scoresA[c][i], want, entry.Score)
			}
		}
	}
}

// TestEnginesZeroRateBitIdentical: installing a zero-rate tolerance leaves
// the cluster's answers bit-identical to an untouched cluster.
func TestEnginesZeroRateBitIdentical(t *testing.T) {
	const shards, features, k = 3, 300, 5
	plain, db := enginesFixture(t, shards, features, core.DefaultOptions())
	tuned, _ := enginesFixture(t, shards, features, core.DefaultOptions())
	if err := tuned.SetTolerance(Tolerance{FaultRate: 0, FaultSeed: 99}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 150, 299} {
		a, err := plain.Query(db.Vectors[q], k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tuned.Query(db.Vectors[q], k)
		if err != nil {
			t.Fatal(err)
		}
		if b.Degraded || b.ShardErrs != nil || len(b.FailedShards) != 0 {
			t.Fatalf("zero-rate answer degraded: %+v", b)
		}
		if len(a.TopK) != len(b.TopK) || a.Makespan != b.Makespan || a.EnergyJ != b.EnergyJ {
			t.Fatalf("zero-rate answers diverge: %+v vs %+v", a, b)
		}
		for i := range a.TopK {
			if a.TopK[i] != b.TopK[i] {
				t.Fatalf("entry %d diverges: %+v vs %+v", i, a.TopK[i], b.TopK[i])
			}
		}
	}
}

// TestEnginesAllShardsFail: rate 1 kills every shard; the batch returns a
// joined error rather than an empty degraded answer.
func TestEnginesAllShardsFail(t *testing.T) {
	e, db := enginesFixture(t, 2, 100, core.DefaultOptions())
	if err := e.SetTolerance(Tolerance{FaultRate: 1, FaultSeed: 3}); err != nil {
		t.Fatal(err)
	}
	_, err := e.Query(db.Vectors[0], 3)
	if err == nil {
		t.Fatal("all-shards-failed query succeeded")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v does not wrap fault.ErrInjected", err)
	}
}

// TestEnginesToleranceValidation rejects malformed policies.
func TestEnginesToleranceValidation(t *testing.T) {
	e, err := NewEngines(2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{-0.1, 1.1} {
		if err := e.SetTolerance(Tolerance{FaultRate: rate}); err == nil {
			t.Errorf("fault rate %v accepted", rate)
		}
	}
	if err := e.SetTolerance(Tolerance{FaultRate: 0.5}); err != nil {
		t.Errorf("valid tolerance rejected: %v", err)
	}
}
