package exp

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Multi-tenant serving study. The serving tier (core.Server) fronts one
// engine with per-tenant weighted-fair queues, per-tenant admission budgets,
// and deadline-aware batch cuts. ServeBench drives it with an open-loop
// Zipfian arrival schedule at a configured multiple of the device's
// calibrated batch capacity and reports, per tenant: p50/p99 latency,
// goodput (served-within-SLO per simulated second), shedding, and the WFQ
// isolation ratio — the tenant's overloaded-mix p99 against its p99 when
// running alone at the same offered rate. A direct-Query oracle engine
// replays every served query to count result mismatches (the bit-identical
// guarantee). All time is simulated, so BENCH_serve.json is byte-identical
// across runs of the same configuration.

// ServeTenant describes one tenant of the serving study. Rates and SLOs are
// expressed in calibrated batch units so the study scales with the device
// model instead of hard-coding simulated milliseconds.
type ServeTenant struct {
	Name   string
	Weight float64
	// LoadFrac is the tenant's offered arrival rate as a fraction of the
	// calibrated batch capacity (Σ LoadFrac > 1 ⇒ cluster overload).
	LoadFrac float64
	// SLOBatches is the tenant's latency SLO in calibrated batch times.
	SLOBatches float64
	// QueueDepth bounds the tenant's admission queue (its shed budget).
	QueueDepth int
}

// ServeConfig sizes the serving study.
type ServeConfig struct {
	App      string // workload application
	Features int    // materialized database size
	K        int    // top-K
	Seed     int64  // database + model + schedule seed
	// BatchSize is the serving tier's shared-sweep width; it is also the
	// calibration batch, so capacity = BatchSize / T_batch.
	BatchSize int
	// SlackBatches is the deadline slack in batch times.
	SlackBatches float64
	// AgingRate is the serving tier's priority-aging gain.
	AgingRate float64
	// HorizonBatches is the open-loop schedule horizon in batch times.
	HorizonBatches float64
	// Universe/Alpha/MaxJitter shape each tenant's Zipfian query trace.
	Universe  int64
	Alpha     float64
	MaxJitter float64
	Tenants   []ServeTenant
}

// DefaultServe returns the CI-scale study: three unequal-weight tenants at
// 2.0× aggregate overload. Gold and silver stay within their weighted-fair
// budgets (the waterfilled capacity covers their offered load); bronze
// offers 1.4× capacity on its own and absorbs the shedding.
func DefaultServe() ServeConfig {
	return ServeConfig{
		App: "TIR", Features: 1000, K: 10, Seed: 7, BatchSize: 16,
		SlackBatches: 0.5, AgingRate: 0.1, HorizonBatches: 24,
		Universe: 4096, Alpha: 0.7, MaxJitter: 0.05,
		Tenants: []ServeTenant{
			{Name: "gold", Weight: 8, LoadFrac: 0.25, SLOBatches: 4, QueueDepth: 64},
			{Name: "silver", Weight: 2, LoadFrac: 0.35, SLOBatches: 8, QueueDepth: 64},
			{Name: "bronze", Weight: 1, LoadFrac: 1.40, SLOBatches: 40, QueueDepth: 16},
		},
	}
}

// ServeRow is one tenant's measured service under the overloaded mix.
type ServeRow struct {
	Tenant     string  `json:"tenant"`
	Weight     float64 `json:"weight"`
	OfferedQPS float64 `json:"offered_qps"`
	// OverloadX is the aggregate offered load over calibrated capacity
	// (identical in every row — a run-level property).
	OverloadX float64 `json:"overload_x"`
	Arrivals  int     `json:"arrivals"`
	Served    int64   `json:"served"`
	Shed      int64   `json:"shed"`
	SLOms     float64 `json:"slo_ms"`
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
	// AloneP99ms is the tenant's p99 running alone at the same offered
	// rate; P99VsAlone = P99ms / AloneP99ms is the WFQ isolation ratio.
	AloneP99ms float64 `json:"alone_p99_ms"`
	P99VsAlone float64 `json:"p99_vs_alone"`
	// GoodputQPS counts queries served within their SLO per simulated
	// second of the schedule horizon.
	GoodputQPS float64 `json:"goodput_qps"`
	// WithinBudget marks tenants whose offered load fits their waterfilled
	// weighted-fair capacity share; CI holds the isolation bound
	// (P99VsAlone ≤ 1.1) for exactly these tenants.
	WithinBudget bool `json:"within_budget"`
	// Mismatches counts served results that differ from a direct-Query
	// oracle replay (the bit-identical guarantee: must be 0).
	Mismatches int `json:"mismatches"`
}

// waterfill grants capacity-1 to demands by weighted max-min fairness and
// reports which tenants' full demand fits their share.
func waterfill(tenants []ServeTenant) map[string]bool {
	type claim struct {
		name   string
		w, dem float64
	}
	active := make([]claim, len(tenants))
	for i, t := range tenants {
		active[i] = claim{name: t.Name, w: t.Weight, dem: t.LoadFrac}
	}
	within := make(map[string]bool, len(tenants))
	remaining := 1.0
	for len(active) > 0 {
		var sumW float64
		for _, c := range active {
			sumW += c.w
		}
		satisfied := -1
		for i, c := range active {
			if c.dem <= remaining*c.w/sumW+1e-12 {
				satisfied = i
				break
			}
		}
		if satisfied < 0 {
			// Every remaining tenant overflows its share: none within budget.
			break
		}
		c := active[satisfied]
		within[c.name] = true
		remaining -= c.dem
		active = append(active[:satisfied], active[satisfied+1:]...)
	}
	return within
}

// serveOutcome is one driven schedule's measurements for one tenant.
type serveOutcome struct {
	latencies []sim.Duration // served queries, arrival order
	served    int64
	shed      int64
	withinSLO int64
}

// driveServe replays an open-loop arrival schedule through the serving tier
// as a device-paced event loop: every arrival that lands while the device is
// busy is admitted (and counted against its tenant's queue budget) before
// the next batch is cut, and cuts fire when the device is free and either a
// full batch is queued or the oldest deadline is due. All timestamps are
// simulated, so the run is a pure function of the schedule.
// When oracle is non-nil, every served result is compared against a direct
// Query of the same spec on the oracle engine and mismatches are counted
// per tenant.
func driveServe(
	ds *core.DeepStore, model core.ModelID, dbID ftl.DBID,
	tenants []core.TenantConfig, batchSize int, slack sim.Duration, aging float64,
	arrivals []workload.Arrival, vec func(workload.Arrival) []float32, k int,
	slos map[string]sim.Duration,
	oracle *core.DeepStore, oracleModel core.ModelID, oracleDB ftl.DBID,
	mismatched map[string]int,
) (map[string]*serveOutcome, error) {
	srv, err := core.NewServer(ds, core.ServerConfig{
		Tenants:       tenants,
		BatchSize:     batchSize,
		DeadlineSlack: slack,
		AgingRate:     aging,
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*serveOutcome, len(tenants))
	for _, t := range tenants {
		out[t.Name] = &serveOutcome{}
	}
	type pending struct {
		arr  workload.Arrival
		spec core.QuerySpec
		ch   <-chan *core.QueryResult
	}
	var accepted []pending
	// The engine's simulated clock is already past zero (database writes and
	// model loads advanced it), while the schedule's arrival times start at
	// zero. Rebase every arrival onto the engine clock at drive start so
	// "arrival time" and "device-free time" live on the same axis.
	t0 := ds.Now()
	at := func(a workload.Arrival) sim.Time { return t0 + sim.Time(a.At) }
	submit := func(a workload.Arrival) error {
		spec := core.QuerySpec{QFV: vec(a), K: k, Model: model, DB: dbID}
		ch, err := srv.SubmitAt(a.Tenant, spec, at(a))
		if errors.Is(err, core.ErrQueueFull) {
			out[a.Tenant].shed++
			return nil
		}
		if err != nil {
			return err
		}
		accepted = append(accepted, pending{arr: a, spec: spec, ch: ch})
		return nil
	}
	i := 0
	for {
		free := ds.Now() // the device serves its next batch at this time
		for i < len(arrivals) && at(arrivals[i]) <= free {
			if err := submit(arrivals[i]); err != nil {
				srv.Close()
				return nil, err
			}
			i++
		}
		if srv.Pending() >= batchSize {
			srv.Pump() // full batch ready the moment the device frees
			continue
		}
		cut, okCut := srv.NextDeadlineCut()
		if okCut && cut <= free {
			srv.Pump() // a deadline came due while the device was busy
			continue
		}
		// Device idle with neither a full batch nor a due deadline: the next
		// event is whichever comes first, the next arrival or the cut.
		if i < len(arrivals) && (!okCut || at(arrivals[i]) <= cut) {
			srv.AdvanceTo(at(arrivals[i]))
			if err := submit(arrivals[i]); err != nil {
				srv.Close()
				return nil, err
			}
			i++
			continue
		}
		if okCut {
			srv.AdvanceTo(cut) // fires the deadline cut at its scheduled time
			continue
		}
		if srv.Pending() > 0 {
			srv.Flush() // queued items without deadlines (SLO-less tenants)
			continue
		}
		break
	}
	srv.Close()

	for _, p := range accepted {
		res, okRes := <-p.ch
		if !okRes || res == nil {
			return nil, fmt.Errorf("exp: serve dropped a result for tenant %s", p.arr.Tenant)
		}
		if res.Err != nil {
			return nil, fmt.Errorf("exp: serve query failed for tenant %s: %w", p.arr.Tenant, res.Err)
		}
		o := out[p.arr.Tenant]
		o.served++
		o.latencies = append(o.latencies, res.Latency)
		if res.Latency <= slos[p.arr.Tenant] {
			o.withinSLO++
		}
		if oracle != nil {
			ospec := p.spec
			ospec.Model, ospec.DB = oracleModel, oracleDB
			ref, err := queryNow(oracle, ospec)
			if err != nil {
				return nil, fmt.Errorf("exp: serve oracle query: %w", err)
			}
			if mismatches(ref.TopK, res.TopK) > 0 {
				mismatched[p.arr.Tenant]++
			}
		}
	}
	return out, nil
}

// ServeBench runs the multi-tenant SLO study: calibrate batch capacity,
// generate the open-loop overload schedule, drive the mixed run (with the
// direct-Query oracle), then drive each tenant alone at its same offered
// rate for the isolation baseline.
func ServeBench(cfg ServeConfig) ([]ServeRow, error) {
	if cfg.Features < 1 || cfg.K < 1 || cfg.BatchSize < 1 || len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("exp: serve config %+v invalid", cfg)
	}
	if cfg.HorizonBatches <= 0 || cfg.SlackBatches < 0 {
		return nil, fmt.Errorf("exp: serve config %+v invalid", cfg)
	}
	app, err := workload.ByName(cfg.App)
	if err != nil {
		return nil, err
	}
	app.SCN.InitRandom(cfg.Seed)
	db := workload.NewFeatureDB(app, cfg.Features, cfg.Seed+1)
	dims := app.SCN.FeatureElems()

	// Calibration: one full shared sweep on a scratch engine gives T_batch,
	// hence capacity = BatchSize / T_batch queries per simulated second.
	cal, calModel, calDB, err := newEngine(core.DefaultOptions(), db.Vectors, app.SCN)
	if err != nil {
		return nil, err
	}
	calSpecs := make([]core.QuerySpec, cfg.BatchSize)
	for i := range calSpecs {
		qfv := workload.QueryVector(workload.Query{SemanticID: int64(i)}, dims, cfg.Seed+3)
		calSpecs[i] = core.QuerySpec{QFV: qfv, K: cfg.K, Model: calModel, DB: calDB}
	}
	calStart := cal.Now()
	calIDs, err := cal.QueryMulti(calSpecs)
	if err != nil {
		return nil, fmt.Errorf("exp: serve calibration: %w", err)
	}
	// Retrieve every result: the serving tier's batches pay the full
	// submit-to-results pipeline, so the calibration must too.
	for _, id := range calIDs {
		if _, err := cal.GetResults(id); err != nil {
			return nil, fmt.Errorf("exp: serve calibration: %w", err)
		}
	}
	tBatch := sim.Duration(cal.Now() - calStart)
	if tBatch <= 0 {
		return nil, fmt.Errorf("exp: serve calibration measured %v batch time", tBatch)
	}
	capacity := float64(cfg.BatchSize) / tBatch.Seconds()

	// Open-loop schedule: per-tenant Poisson arrivals at LoadFrac×capacity
	// over the horizon, with Zipfian query populations.
	horizon := sim.Duration(cfg.HorizonBatches * float64(tBatch))
	var loads []workload.TenantLoad
	var overload float64
	slos := make(map[string]sim.Duration, len(cfg.Tenants))
	tcs := make([]core.TenantConfig, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		overload += t.LoadFrac
		slos[t.Name] = sim.Duration(t.SLOBatches * float64(tBatch))
		loads = append(loads, workload.TenantLoad{
			Tenant:     t.Name,
			RatePerSec: t.LoadFrac * capacity,
			Trace: workload.TraceConfig{
				Universe: cfg.Universe, Dist: workload.Zipfian, Alpha: cfg.Alpha,
				MaxJitter: cfg.MaxJitter, Seed: cfg.Seed + 10 + int64(i),
			},
		})
		tcs[i] = core.TenantConfig{
			Name: t.Name, Weight: t.Weight, QueueDepth: t.QueueDepth, SLO: slos[t.Name],
		}
	}
	arrivals, err := workload.OpenLoop(loads, horizon, cfg.Seed+4)
	if err != nil {
		return nil, err
	}
	vec := func(a workload.Arrival) []float32 {
		return workload.QueryVector(a.Query, dims, cfg.Seed+3)
	}
	slack := sim.Duration(cfg.SlackBatches * float64(tBatch))

	// Mixed overload run, with the oracle replay.
	ds, model, dbID, err := newEngine(core.DefaultOptions(), db.Vectors, app.SCN)
	if err != nil {
		return nil, err
	}
	oracle, oracleModel, oracleDB, err := newEngine(core.DefaultOptions(), db.Vectors, app.SCN)
	if err != nil {
		return nil, err
	}
	mismatched := make(map[string]int, len(cfg.Tenants))
	mixed, err := driveServe(ds, model, dbID, tcs, cfg.BatchSize, slack, cfg.AgingRate,
		arrivals, vec, cfg.K, slos, oracle, oracleModel, oracleDB, mismatched)
	if err != nil {
		return nil, err
	}

	within := waterfill(cfg.Tenants)
	rows := make([]ServeRow, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		// Alone baseline: the tenant replays ITS slice of the same schedule
		// on a fresh engine with the tier to itself.
		ads, amodel, adbID, err := newEngine(core.DefaultOptions(), db.Vectors, app.SCN)
		if err != nil {
			return nil, err
		}
		var mine []workload.Arrival
		for _, a := range arrivals {
			if a.Tenant == t.Name {
				mine = append(mine, a)
			}
		}
		alone, err := driveServe(ads, amodel, adbID, tcs[i:i+1], cfg.BatchSize, slack, cfg.AgingRate,
			mine, vec, cfg.K, slos, nil, 0, 0, nil)
		if err != nil {
			return nil, err
		}
		m, a := mixed[t.Name], alone[t.Name]
		p50, p99 := quantiles(m.latencies)
		_, aloneP99 := quantiles(a.latencies)
		row := ServeRow{
			Tenant:       t.Name,
			Weight:       t.Weight,
			OfferedQPS:   t.LoadFrac * capacity,
			OverloadX:    overload,
			Arrivals:     len(mine),
			Served:       m.served,
			Shed:         m.shed,
			SLOms:        slos[t.Name].Milliseconds(),
			P50ms:        p50.Milliseconds(),
			P99ms:        p99.Milliseconds(),
			AloneP99ms:   aloneP99.Milliseconds(),
			GoodputQPS:   float64(m.withinSLO) / horizon.Seconds(),
			WithinBudget: within[t.Name],
			Mismatches:   mismatched[t.Name],
		}
		if aloneP99 > 0 {
			row.P99VsAlone = p99.Seconds() / aloneP99.Seconds()
		}
		rows[i] = row
	}
	return rows, nil
}

// quantiles returns the p50 and p99 of the (unsorted) latency set.
func quantiles(lat []sim.Duration) (p50, p99 sim.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	sorted := append([]sim.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return obs.QuantileDurations(sorted, 50), obs.QuantileDurations(sorted, 99)
}

// serveTable tabulates the study.
func serveTable(rows []ServeRow) report.Table {
	header := []string{"Tenant", "Weight", "Offered q/s", "Overload", "Arrivals", "Served", "Shed",
		"SLO (ms)", "p50 (ms)", "p99 (ms)", "alone p99", "p99 ratio", "Goodput q/s", "In budget", "Mismatch"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Tenant, F(r.Weight), F(r.OfferedQPS), F(r.OverloadX) + "x",
			fmt.Sprint(r.Arrivals), fmt.Sprint(r.Served), fmt.Sprint(r.Shed),
			F(r.SLOms), F(r.P50ms), F(r.P99ms), F(r.AloneP99ms), F(r.P99VsAlone),
			F(r.GoodputQPS), fmt.Sprint(r.WithinBudget), fmt.Sprint(r.Mismatches),
		})
	}
	return report.Table{Name: "serve", Header: header, Rows: out}
}
