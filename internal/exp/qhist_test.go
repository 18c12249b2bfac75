package exp

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// The BENCH_qhist.json acceptance properties: the sweep is byte-deterministic
// (CI regenerates it twice and compares), learned admission beats plain LRU
// on the Zipfian trace, and no miss-path answer ever diverges from the
// cache-off oracle.
func TestQHistSweepDeterministicAndLearnedWins(t *testing.T) {
	cfg := DefaultQHist()
	rows1, err := QHistSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := QHistSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.MarshalIndent(rows1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.MarshalIndent(rows2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j1, j2) {
		t.Fatal("BENCH_qhist.json is not byte-deterministic across runs")
	}

	byCell := map[string]QHistRow{}
	for _, r := range rows1 {
		byCell[r.Trace+"/"+r.Policy] = r
		if r.MissMismatches != 0 {
			t.Errorf("%s/%s: %d miss-path top-K mismatches vs the oracle",
				r.Trace, r.Policy, r.MissMismatches)
		}
		if r.Hits+r.Misses != uint64(r.Queries) {
			t.Errorf("%s/%s: hits %d + misses %d != queries %d",
				r.Trace, r.Policy, r.Hits, r.Misses, r.Queries)
		}
		if r.Records != uint64(r.Queries) {
			t.Errorf("%s/%s: %d history records for %d queries",
				r.Trace, r.Policy, r.Records, r.Queries)
		}
		if r.Policy == "learned" && r.Groups == 0 {
			t.Errorf("%s/learned: empty admission model", r.Trace)
		}
	}
	if byCell["zipfian/learned"].HitRate <= byCell["zipfian/lru"].HitRate {
		t.Errorf("learned admission (%v) did not beat LRU (%v) on the Zipfian trace",
			byCell["zipfian/learned"].HitRate, byCell["zipfian/lru"].HitRate)
	}
}

func TestQHistSweepValidation(t *testing.T) {
	cfg := DefaultQHist()
	cfg.Queries = 0
	if _, err := QHistSweep(cfg); err == nil {
		t.Error("degenerate config accepted")
	}
}

func TestCellsQHistShape(t *testing.T) {
	rows := []QHistRow{{Trace: "zipfian", Policy: "lru", Queries: 1}}
	res, err := withRows(qhistTable(rows), rows)
	checkResult(t, res, err)
	if res.Artifacts[0].Name != "qhist" || strings.Contains(string(res.Artifacts[0].Data), "Wall") {
		t.Errorf("artifact %q leaks wall-clock time: %s", res.Artifacts[0].Name, res.Artifacts[0].Data)
	}
}
