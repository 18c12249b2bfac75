package workload

import (
	"errors"
	"math"
	"testing"

	"repro/internal/sim"
)

// TestTraceConfigValidate is the satellite table test: every degenerate
// configuration is rejected with its typed sentinel, and a valid one
// passes.
func TestTraceConfigValidate(t *testing.T) {
	valid := TraceConfig{Universe: 100, Length: 10, Dist: Zipfian, Alpha: 0.7, MaxJitter: 0.05}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*TraceConfig)
		want error
	}{
		{"zero universe", func(c *TraceConfig) { c.Universe = 0 }, ErrTraceUniverse},
		{"negative universe", func(c *TraceConfig) { c.Universe = -5 }, ErrTraceUniverse},
		{"negative length", func(c *TraceConfig) { c.Length = -1 }, ErrTraceLength},
		{"negative alpha", func(c *TraceConfig) { c.Alpha = -0.1 }, ErrTraceAlpha},
		{"negative jitter", func(c *TraceConfig) { c.MaxJitter = -0.01 }, ErrTraceJitter},
		{"jitter above one", func(c *TraceConfig) { c.MaxJitter = 1.01 }, ErrTraceJitter},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mut(&cfg)
			err := cfg.Validate()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
			// GenerateTrace keeps the panicking contract for literal configs.
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("GenerateTrace did not panic on a degenerate config")
					}
				}()
				GenerateTrace(cfg)
			}()
		})
	}
	// A negative alpha is fine for Uniform traces (the field is ignored).
	uniform := valid
	uniform.Dist = Uniform
	uniform.Alpha = -1
	if err := uniform.Validate(); err != nil {
		t.Fatalf("uniform trace rejected for its unused alpha: %v", err)
	}
}

// TestNewTraceMatchesGenerateTrace: a config that passes Validate generates
// a trace that records it, identical from one call to the next.
func TestNewTraceMatchesGenerateTrace(t *testing.T) {
	cfg := TraceConfig{Universe: 500, Length: 200, Dist: Zipfian, Alpha: 0.8, MaxJitter: 0.05, Seed: 42}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b := GenerateTrace(cfg), GenerateTrace(cfg)
	if a.Config != cfg {
		t.Fatalf("trace records config %+v, want %+v", a.Config, cfg)
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Queries), len(b.Queries))
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a.Queries[i], b.Queries[i])
		}
	}
}

func openLoopLoads() []TenantLoad {
	trace := TraceConfig{Universe: 1000, Dist: Zipfian, Alpha: 0.7, MaxJitter: 0.05, Seed: 7}
	return []TenantLoad{
		{Tenant: "gold", RatePerSec: 2000, Trace: trace},
		{Tenant: "silver", RatePerSec: 1000, Trace: trace},
		{Tenant: "bronze", RatePerSec: 4000, Trace: trace},
	}
}

// TestOpenLoopDeterministic: the merged schedule is a pure function of the
// configuration — two generations are identical, element for element.
func TestOpenLoopDeterministic(t *testing.T) {
	a, err := OpenLoop(openLoopLoads(), sim.Second, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenLoop(openLoopLoads(), sim.Second, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules sized %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestOpenLoopShape: arrivals are time-ordered within the horizon, every
// tenant's realized count is near its configured rate (Poisson law of large
// numbers), and per-tenant query IDs are sequential.
func TestOpenLoopShape(t *testing.T) {
	loads := openLoopLoads()
	horizon := 2 * sim.Second
	arrivals, err := OpenLoop(loads, horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	lastID := map[string]int64{}
	var prev sim.Time
	for i, a := range arrivals {
		if a.At < prev {
			t.Fatalf("arrival %d at %v before predecessor %v", i, a.At, prev)
		}
		prev = a.At
		if a.At <= 0 || a.At > sim.Time(horizon) {
			t.Fatalf("arrival %d at %v outside (0, %v]", i, a.At, horizon)
		}
		if want := lastID[a.Tenant]; a.Query.ID != want {
			t.Fatalf("tenant %s query ID %d, want sequential %d", a.Tenant, a.Query.ID, want)
		}
		lastID[a.Tenant]++
		counts[a.Tenant]++
	}
	for _, ld := range loads {
		want := ld.RatePerSec * horizon.Seconds()
		got := float64(counts[ld.Tenant])
		// 5 sigma on a Poisson count: flake probability ~1e-6.
		if math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Fatalf("tenant %s: %v arrivals, want %v ± %v", ld.Tenant, got, want, 5*math.Sqrt(want))
		}
	}
}

// TestOpenLoopValidation: typed errors for degenerate load sets.
func TestOpenLoopValidation(t *testing.T) {
	good := openLoopLoads()
	cases := []struct {
		name    string
		loads   []TenantLoad
		horizon sim.Duration
		want    error
	}{
		{"no tenants", nil, sim.Second, ErrLoadTenant},
		{"zero horizon", good, 0, ErrLoadHorizon},
		{"negative horizon", good, -sim.Second, ErrLoadHorizon},
		{"unnamed tenant", []TenantLoad{{RatePerSec: 1, Trace: good[0].Trace}}, sim.Second, ErrLoadTenant},
		{"duplicate tenant", append(append([]TenantLoad{}, good...), good[0]), sim.Second, ErrLoadTenant},
		{"zero rate", []TenantLoad{{Tenant: "t", RatePerSec: 0, Trace: good[0].Trace}}, sim.Second, ErrLoadRate},
		{"negative rate", []TenantLoad{{Tenant: "t", RatePerSec: -3, Trace: good[0].Trace}}, sim.Second, ErrLoadRate},
		{"nan rate", []TenantLoad{{Tenant: "t", RatePerSec: math.NaN(), Trace: good[0].Trace}}, sim.Second, ErrLoadRate},
		{"bad trace", []TenantLoad{{Tenant: "t", RatePerSec: 1, Trace: TraceConfig{Universe: 0}}}, sim.Second, ErrTraceUniverse},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := OpenLoop(tc.loads, tc.horizon, 1); !errors.Is(err, tc.want) {
				t.Fatalf("OpenLoop error = %v, want %v", err, tc.want)
			}
		})
	}
}
