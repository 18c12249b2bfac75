package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 80, 130, 60, 110, 90, 150}
	for _, c := range []struct {
		name         string
		base, change []float64
		better       string
		bound        float64
		want         verdict
	}{
		{"10% faster on every pair", base, scale(0.9), lower, 0.10, improved},
		{"same", base, base, lower, 0.10, noWorse},
		{"5% slower, inside the bound", base, scale(1.05), lower, 0.10, noWorse},
		{"20% slower", base, scale(1.2), lower, 0.10, regressed},
		{"20% lower throughput", base, scale(0.8), higher, 0.10, regressed},
		{"20% higher throughput", base, scale(1.2), higher, 0.10, improved},
		{"base noisier than the bound", noisy, scale(1.02), lower, 0.10, unresolved},
		{"noisy base, but every run of the change is better", noisy, scale(0.4), lower, 0.10, improved},
		{"noisy base, every run of the change better but inside the base's spread", noisy, scale(0.58), lower, 0.10, noWorse},
	} {
		if got := judge(c.base, c.change, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := judge(base[:9], scale(0.5)[:9], lower, 0.10); got == improved {
		t.Error("improved on nine pairs: a gain needs ten")
	}
	// Eight wins of ten is not nine tenths: no gain may be claimed.
	change := append(scale(0.9)[:8], 103, 104)
	if got := judge(base, change, lower, 0.10); got == improved {
		t.Error("improved on 8 wins of 10")
	}
}

func TestCompareSetsPrintsRatiosWithBase(t *testing.T) {
	mk := func(p50 float64, digest string) runSet {
		var rs runSet
		for seed := int64(1); seed <= 10; seed++ {
			rs.Runs = append(rs.Runs, runRecord{
				Workload: "scan_dense", Seed: seed,
				Metrics: map[string]measured{"host_op_p50_ms": {p50 + float64(seed), "ms"}},
				Info:    map[string]string{"sim_digest": digest},
			})
		}
		return rs
	}
	var out bytes.Buffer
	if err := compareSets(&out, mk(100, "aa"), mk(50, "bb")); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"scan_dense", "host_op_p50_ms", "improved", "(105.5 ms)", "0 runs identical, 10 differ"} {
		if !strings.Contains(text, want) {
			t.Errorf("comparison lacks %q:\n%s", want, text)
		}
	}
}
