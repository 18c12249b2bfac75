package exp

import (
	"encoding/json"
	"testing"
)

// testMQ is a seconds-scale configuration: TextQA's small SCN, a tiny
// database, and widths 1/4 are enough to observe the sweep amortization.
func testMQ() MQConfig {
	return MQConfig{App: "TextQA", Features: 96, Queries: 16, K: 5, Seed: 7,
		Qs: []int{1, 4}}
}

// TestMultiQueryBenchSpeedup: batching queries into shared sweeps must cut
// simulated time per query — at Q=4 each sweep serves four queries, so
// throughput should at least double versus one-query batches.
func TestMultiQueryBenchSpeedup(t *testing.T) {
	rows, err := MultiQueryBench(testMQ())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0].Q != 1 || rows[0].SpeedupVsQ1 != 1 {
		t.Fatalf("baseline row = %+v", rows[0])
	}
	if rows[0].Batches != 16 || rows[1].Batches != 4 {
		t.Fatalf("batches = %d/%d, want 16/4", rows[0].Batches, rows[1].Batches)
	}
	if rows[1].SpeedupVsQ1 < 2 {
		t.Fatalf("Q=4 speedup %.2fx, want >= 2x", rows[1].SpeedupVsQ1)
	}
	if rows[1].NsFeature >= rows[0].NsFeature {
		t.Fatalf("ns/feature did not improve: %.1f vs %.1f", rows[1].NsFeature, rows[0].NsFeature)
	}
	res, err := withRows(mqTable(rows), rows)
	checkResult(t, res, err)
}

// TestMultiQueryBenchDeterministic: the JSON artifact (BENCH_mq.json's
// content) is byte-identical across runs of the same configuration — the
// property CI's schema check relies on. Wall-clock time is excluded from
// the encoding by construction.
func TestMultiQueryBenchDeterministic(t *testing.T) {
	var blobs [][]byte
	for run := 0; run < 2; run++ {
		rows, err := MultiQueryBench(testMQ())
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, data)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatalf("artifact differs across runs:\n%s\n---\n%s", blobs[0], blobs[1])
	}
}

// TestMultiQueryBenchValidation rejects nonsense configurations.
func TestMultiQueryBenchValidation(t *testing.T) {
	for _, cfg := range []MQConfig{
		{},
		{App: "TIR", Features: 10, Queries: 4, K: 1}, // no widths
		{App: "TIR", Features: 10, Queries: 4, K: 1, Qs: []int{0}},
		{App: "nope", Features: 10, Queries: 4, K: 1, Qs: []int{1}},
	} {
		if _, err := MultiQueryBench(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}
