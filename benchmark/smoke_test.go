package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// Toy-size smoke of all four workloads, untraced and traced: every metric of
// the catalogue is emitted exactly once, with its unit and a finite value,
// the outputs check out, and the simulated side repeats exactly.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wd := range workloadDefs {
		wd := wd
		t.Run(wd.Name, func(t *testing.T) {
			plain, _, err := runOne(wd.Name, 1, 0.05, false, toy, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			traced, spans, err := runOne(wd.Name, 1, 0.05, true, toy, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				rec  runRecord
				defs []metricDef
			}{{plain, endToEnd}, {traced, perLayer}} {
				if !c.rec.Correct || c.rec.Failed != 0 || c.rec.Attempted < 1 {
					t.Errorf("trace %d: correct %v, attempted %d, failed %d: %s",
						c.rec.Trace, c.rec.Correct, c.rec.Attempted, c.rec.Failed, c.rec.Info["first_error"])
				}
				if len(c.rec.Metrics) != len(c.defs) {
					t.Errorf("trace %d: %d metrics emitted, catalogue has %d", c.rec.Trace, len(c.rec.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					m, ok := c.rec.Metrics[d.Name]
					if !ok {
						t.Errorf("trace %d: metric %s not emitted", c.rec.Trace, d.Name)
						continue
					}
					if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, m.Value, m.Unit, d.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if plain.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be measured and positive", d.Name, plain.Metrics[d.Name].Value)
				}
			}
			if plain.Info["sim_digest"] != traced.Info["sim_digest"] {
				t.Errorf("sim_digest differs between the untraced (%s) and traced (%s) run of one seed",
					plain.Info["sim_digest"], traced.Info["sim_digest"])
			}
			if len(spans) == 0 || traced.Metrics["trace.spans"].Value != float64(len(spans)) {
				t.Errorf("%d spans recorded, trace.spans says %v", len(spans), traced.Metrics["trace.spans"].Value)
			}
			roots := 0
			for _, s := range spans {
				if s.Name == "op" && s.ParentID == 0 {
					roots++
				}
				if s.EndNs < s.StartNs {
					t.Errorf("span %+v ends before it starts", s)
				}
			}
			if roots == 0 {
				t.Error("no root span around any op")
			}
			other, _, err := runOne(wd.Name, 2, 0.05, false, toy, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if wd.Name != "sim_paper" && other.Info["sim_digest"] == plain.Info["sim_digest"] {
				t.Error("another seed gave the same simulated results: the seed does not reach the inputs")
			}
		})
	}
}

// What each workload claims to stress must show even at toy size.
func TestSmokeWorkloadsStressWhatTheyClaim(t *testing.T) {
	get := func(name string) map[string]measured {
		rec, _, err := runOne(name, 1, 0.05, true, toy, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Metrics
	}
	if m := get("cache_zipf_remote"); m["cache_hit_rate"].Value <= 0 || m["qcache.hits"].Value <= 0 ||
		m["proto.client_self_us"].Value <= 0 || m["proto.bytes_per_op"].Value <= 0 || m["qhist.records"].Value <= 0 {
		t.Errorf("cache_zipf_remote: cache, history or wire figures missing: %v", m)
	}
	if m := get("multi_tight_ingest"); m["host_append_samples"].Value < 1 || m["core.shared_scan_width"].Value <= 1 ||
		m["core.stripes_checked_per_op"].Value <= 0 || m["tensor.gemm_i8_ns_per_mac"].Value <= 0 {
		t.Errorf("multi_tight_ingest: writer, shared-sweep, bound-check or int8 figures missing: %v", m)
	}
	if m := get("sim_paper"); m["share.tensor_nn"].Value != 0 || m["tensor.gemm_f32_ns_per_mac"].Value != 0 ||
		m["host_events_per_s"].Value <= 0 || m["sim.events_per_op"].Value <= 0 {
		t.Errorf("sim_paper: must show events and no tensor or nn time: %v", m)
	}
	if m := get("scan_dense"); m["share.tensor_nn"].Value <= 0 || m["cache_hit_rate"].Value != 0 ||
		m["proto.commands"].Value != 0 || m["cluster.query_ms"].Value <= 0 {
		t.Errorf("scan_dense: must show scoring time, no cache and no wire: %v", m)
	}
}

// BENCHMARK.json at the repository root is the catalogue, byte for byte.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(description(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(onDisk), want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./benchmark -describe > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit %q too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloadDefs {
		if setups[w.Name] == nil || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: no set-up, or its why is not one line of at most 200 characters", w.Name)
		}
	}
}

// The command prints the result as its last line, in exactly the shape the
// builder's driver reads, and refuses what it does not know.
func TestRunPrintsResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut); code == 0 {
		t.Error("unknown workload accepted")
	}
	if code := run([]string{"--workload", "sim_paper", "--trace", "2"}, &out, &errOut); code == 0 {
		t.Error("-trace 2 accepted")
	}
	out.Reset()
	if code := run([]string{"-describe"}, &out, &errOut); code != 0 || !strings.Contains(out.String(), `"run_seconds": 25`) {
		t.Errorf("-describe: exit %d, output %q", code, out.String())
	}
}
