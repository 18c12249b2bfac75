package core

import (
	"testing"

	"repro/internal/racetest"
	"repro/internal/workload"
)

// Allocation budgets of one cache op on the engine cacheOpEngine builds. The
// constant state of an op (histogram ladders, stage metric names, systolic
// costs) is built once per engine, so what is left is the op's own results,
// records and stages.
const (
	hitAllocBudget  = 24
	missAllocBudget = 150
)

// cacheOpEngine is an engine shaped like the cached remote workload: TextQA
// over 256 features, history on, learned admission, a 1 024-entry cache
// filled with distinct queries by a Hadamard QCN under which only a repeat
// hits. It returns the engine, a spec template and fresh queries no entry
// matches.
func cacheOpEngine(t *testing.T) (*DeepStore, QuerySpec, [][]float32, [][]float32) {
	t.Helper()
	const entries, features = 1024, 256
	opts := DefaultOptions()
	opts.History = true
	opts.CacheAdmission = AdmissionLearned
	ds, _, model, db := buildEngine(t, opts, "TextQA", features)
	app, err := workload.ByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetQC(scaledQCN(app.SCN.FeatureElems()), 1, entries, 0.2); err != nil {
		t.Fatal(err)
	}
	qs := workload.NewFeatureDB(app, entries+64, 17).Vectors
	spec := QuerySpec{K: 10, Model: model, DB: db}
	for _, q := range qs[:entries] {
		spec.QFV = q
		runQuery(t, ds, spec)
	}
	return ds, spec, qs[:entries], qs[entries:]
}

// TestCacheOpAllocs: a steady-state hit (Query + GetResults of a resident
// query against the full cache) and a miss that scans the 256-feature
// database each stay within their allocation budget.
func TestCacheOpAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ds, spec, resident, fresh := cacheOpEngine(t)
	op := func(q []float32, wantHit bool) {
		spec.QFV = q
		if res := runQuery(t, ds, spec); res.CacheHit != wantHit {
			t.Fatalf("CacheHit = %v, want %v", res.CacheHit, wantHit)
		}
	}
	hot := resident[len(resident)-1]
	hit := testing.AllocsPerRun(20, func() { op(hot, true) })
	next := 0
	miss := testing.AllocsPerRun(20, func() {
		op(fresh[next], false)
		next++
	})
	t.Logf("allocations per op: hit %.0f, 256-feature miss %.0f", hit, miss)
	if hit > hitAllocBudget {
		t.Errorf("a hit allocates %.0f times, budget %d", hit, hitAllocBudget)
	}
	if miss > missAllocBudget {
		t.Errorf("a miss allocates %.0f times, budget %d", miss, missAllocBudget)
	}
}
