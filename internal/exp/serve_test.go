package exp

import (
	"encoding/json"
	"testing"
)

// serveTestConfig shrinks the default study for test runtime while keeping
// its structure: three unequal-weight tenants at 2.0× aggregate overload.
func serveTestConfig() ServeConfig {
	cfg := DefaultServe()
	cfg.Features = 300
	cfg.BatchSize = 8
	cfg.HorizonBatches = 12
	cfg.Universe = 512
	return cfg
}

// TestServeBenchInvariants checks the acceptance criteria of the serving
// study on the shrunk configuration: ≥2× overload with ≥3 unequal-weight
// tenants, positive goodput everywhere, zero oracle mismatches, and WFQ
// isolation (within-budget tenants' p99 within 1.1× of their alone run).
func TestServeBenchInvariants(t *testing.T) {
	cfg := serveTestConfig()
	rows, err := ServeBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("%d tenants, want >= 3", len(rows))
	}
	weights := map[float64]bool{}
	var shedTotal int64
	for _, r := range rows {
		weights[r.Weight] = true
		if r.OverloadX < 2 {
			t.Errorf("tenant %s: overload %vx, want >= 2x", r.Tenant, r.OverloadX)
		}
		if r.Arrivals <= 0 {
			t.Errorf("tenant %s: no arrivals", r.Tenant)
		}
		if int64(r.Arrivals) != r.Served+r.Shed {
			t.Errorf("tenant %s: arrivals %d != served %d + shed %d", r.Tenant, r.Arrivals, r.Served, r.Shed)
		}
		if r.GoodputQPS <= 0 {
			t.Errorf("tenant %s: goodput %v, want > 0", r.Tenant, r.GoodputQPS)
		}
		if r.Mismatches != 0 {
			t.Errorf("tenant %s: %d oracle mismatches, want 0", r.Tenant, r.Mismatches)
		}
		if r.P50ms <= 0 || r.P99ms < r.P50ms {
			t.Errorf("tenant %s: implausible quantiles p50=%v p99=%v", r.Tenant, r.P50ms, r.P99ms)
		}
		if r.WithinBudget {
			if r.Shed != 0 {
				t.Errorf("within-budget tenant %s shed %d queries", r.Tenant, r.Shed)
			}
			if r.P99VsAlone > 1.1 {
				t.Errorf("tenant %s: p99 %vx its alone run, isolation bound is 1.1x", r.Tenant, r.P99VsAlone)
			}
		}
		shedTotal += r.Shed
	}
	if len(weights) < 3 {
		t.Errorf("%d distinct weights, want >= 3 (unequal-weight tenants)", len(weights))
	}
	if shedTotal == 0 {
		t.Error("2x overload shed nothing: admission budgets never engaged")
	}
	// The default study marks gold and silver within budget, bronze not.
	within := map[string]bool{}
	for _, r := range rows {
		within[r.Tenant] = r.WithinBudget
	}
	if !within["gold"] || !within["silver"] || within["bronze"] {
		t.Errorf("budget flags %v, want gold+silver within, bronze over", within)
	}
	res, err := withRows(serveTable(rows), rows)
	checkResult(t, res, err)
}

// TestServeBenchDeterministic: the JSON artifact is byte-identical across
// runs.
func TestServeBenchDeterministic(t *testing.T) {
	cfg := serveTestConfig()
	a, err := ServeBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServeBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("serve artifacts diverged:\n%s\n%s", ja, jb)
	}
}

// TestWaterfill: weighted max-min allocation classifies budget fits.
func TestWaterfill(t *testing.T) {
	cases := []struct {
		name    string
		tenants []ServeTenant
		want    map[string]bool
	}{
		{
			"default study",
			DefaultServe().Tenants,
			map[string]bool{"gold": true, "silver": true, "bronze": false},
		},
		{
			"all fit",
			[]ServeTenant{{Name: "a", Weight: 1, LoadFrac: 0.3}, {Name: "b", Weight: 1, LoadFrac: 0.3}},
			map[string]bool{"a": true, "b": true},
		},
		{
			"all overflow",
			[]ServeTenant{{Name: "a", Weight: 1, LoadFrac: 0.8}, {Name: "b", Weight: 1, LoadFrac: 0.8}},
			map[string]bool{},
		},
		{
			"spare capacity rescues the heavy demand",
			// a uses 0.1 of its 0.5 share; b's 0.9 fits the remaining 0.9.
			[]ServeTenant{{Name: "a", Weight: 1, LoadFrac: 0.1}, {Name: "b", Weight: 1, LoadFrac: 0.9}},
			map[string]bool{"a": true, "b": true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := waterfill(tc.tenants)
			for name, want := range tc.want {
				if got[name] != want {
					t.Errorf("tenant %s within=%v, want %v", name, got[name], want)
				}
			}
			for name := range got {
				if _, ok := tc.want[name]; !ok && got[name] {
					t.Errorf("unexpected within-budget tenant %s", name)
				}
			}
		})
	}
}

// TestServeBenchRejectsBadConfig: degenerate configurations error out.
func TestServeBenchRejectsBadConfig(t *testing.T) {
	muts := []func(*ServeConfig){
		func(c *ServeConfig) { c.Features = 0 },
		func(c *ServeConfig) { c.K = 0 },
		func(c *ServeConfig) { c.BatchSize = 0 },
		func(c *ServeConfig) { c.Tenants = nil },
		func(c *ServeConfig) { c.HorizonBatches = 0 },
		func(c *ServeConfig) { c.SlackBatches = -1 },
		func(c *ServeConfig) { c.App = "no-such-app" },
		func(c *ServeConfig) { c.Universe = 0 },
		func(c *ServeConfig) { c.Tenants[0].LoadFrac = 0 },
	}
	for i, mut := range muts {
		cfg := serveTestConfig()
		cfg.Tenants = append([]ServeTenant(nil), cfg.Tenants...)
		mut(&cfg)
		if _, err := ServeBench(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}
