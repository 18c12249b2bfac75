package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	orig := GenerateTrace(TraceConfig{
		Universe: 50, Length: 200, Dist: Zipfian, Alpha: 0.8, MaxJitter: 0.1, Seed: 3,
	})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != orig.Config {
		t.Errorf("config = %+v, want %+v", got.Config, orig.Config)
	}
	if len(got.Queries) != len(orig.Queries) {
		t.Fatalf("loaded %d queries, want %d", len(got.Queries), len(orig.Queries))
	}
	for i := range orig.Queries {
		if got.Queries[i] != orig.Queries[i] {
			t.Fatalf("query %d differs", i)
		}
	}
}

func TestLoadTraceRejectsGarbage(t *testing.T) {
	if _, err := LoadTrace(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadTrace(strings.NewReader(`{"version":99,"config":{},"queries":0}`)); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := LoadTrace(strings.NewReader(`{"version":1,"config":{},"queries":5}`)); err == nil {
		t.Error("truncated trace accepted")
	}
	// A header claiming more queries than any memory holds is an error, not
	// an allocation.
	if _, err := LoadTrace(strings.NewReader(`{"version":1,"config":{},"queries":4611686018427387904}`)); err == nil {
		t.Error("oversized query count accepted")
	}
}

func TestTraceSaveIsLineDelimited(t *testing.T) {
	tr := GenerateTrace(TraceConfig{Universe: 5, Length: 3, Dist: Uniform, Seed: 1})
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 4 { // header + 3 queries
		t.Errorf("%d lines, want 4", lines)
	}
}
