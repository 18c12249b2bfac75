package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// tenantSpec builds a valid query spec whose QFV[0] carries a signature the
// composition tests can read back from onBatch.
func tenantSpec(sig float32, model ModelID, db ftl.DBID) QuerySpec {
	qfv := eqVectors(1, 991)[0]
	qfv = append([]float32(nil), qfv...)
	qfv[0] = sig
	return QuerySpec{QFV: qfv, K: 2, Model: model, DB: db}
}

// TestServerWFQComposition: with every tenant backlogged and one large
// drain, dispatch order is exactly start-time fair queueing — finish tags
// ascending (ties to the earlier admission), which hands gold:silver:bronze
// slots in 4:2:1 proportion over any aligned window.
func TestServerWFQComposition(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 17, false)
	var order []float32
	srv, err := NewServer(engine, ServerConfig{
		Tenants: []TenantConfig{
			{Name: "gold", Weight: 4},
			{Name: "silver", Weight: 2},
			{Name: "bronze", Weight: 1},
		},
		BatchSize: 16, // larger than the backlog: composition set by Flush alone
		onBatch: func(specs []QuerySpec) {
			for _, s := range specs {
				order = append(order, s.QFV[0])
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Round-robin admission: gold 7, silver 4, bronze 3 items, signatures
	// encode tenant (100s digit) and per-tenant index.
	submit := func(tenant string, sig float32) {
		t.Helper()
		if _, err := srv.Submit(tenant, tenantSpec(sig, model, db)); err != nil {
			t.Fatalf("submit %s %v: %v", tenant, sig, err)
		}
	}
	counts := map[string]int{"gold": 7, "silver": 4, "bronze": 3}
	base := map[string]float32{"gold": 100, "silver": 200, "bronze": 300}
	idx := map[string]int{}
	for len(idx) < 3 || idx["gold"] < counts["gold"] || idx["silver"] < counts["silver"] || idx["bronze"] < counts["bronze"] {
		progressed := false
		for _, tn := range []string{"gold", "silver", "bronze"} {
			if idx[tn] < counts[tn] {
				idx[tn]++
				submit(tn, base[tn]+float32(idx[tn]))
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	srv.Flush()

	// SFQ order for weights 4/2/1 with round-robin admission g,s,b,...:
	// finish tags gold k/4, silver k/2, bronze k; ties break to the earlier
	// submission sequence number.
	want := []float32{101, 201, 102, 103, 301, 202, 104, 105, 203, 106, 107, 302, 204, 303}
	if len(order) != len(want) {
		t.Fatalf("dispatched %d items, want %d (%v)", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("slot %d: dispatched %v, want %v (full order %v)", i, order[i], want[i], order)
		}
	}
	// The first 7 slots split 4/2/1 — the weighted shares exactly.
	share := map[float32]int{}
	for _, sig := range order[:7] {
		share[float32(int(sig)/100)]++
	}
	if share[1] != 4 || share[2] != 2 || share[3] != 1 {
		t.Fatalf("first-window shares gold=%d silver=%d bronze=%d, want 4/2/1", share[1], share[2], share[3])
	}
}

// TestServerAging: a light tenant's long-waiting query overtakes a heavy
// tenant's fresh backlog once its simulated wait has earned enough aging
// credit — and stays behind it when aging is disabled.
func TestServerAging(t *testing.T) {
	for _, tc := range []struct {
		name      string
		agingRate float64
		wantFirst float32
	}{
		{"aged", 10, 200},  // light query jumps the heavy backlog
		{"unaged", 0, 101}, // pure SFQ: heavy's small finish tags win
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine, model, db := newEqEngine(t, DefaultOptions(), 17, false)
			var first float32 = -1
			srv, err := NewServer(engine, ServerConfig{
				Tenants: []TenantConfig{
					{Name: "heavy", Weight: 10},
					{Name: "light", Weight: 1},
				},
				BatchSize: 16,
				AgingRate: tc.agingRate,
				onBatch: func(specs []QuerySpec) {
					if first < 0 {
						first = specs[0].QFV[0]
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			// The light query arrives first, then waits one simulated second
			// while the heavy tenant piles up fresh traffic.
			if _, err := srv.Submit("light", tenantSpec(200, model, db)); err != nil {
				t.Fatal(err)
			}
			srv.AdvanceTo(engine.Now() + sim.Time(sim.Second))
			for k := 1; k <= 5; k++ {
				if _, err := srv.Submit("heavy", tenantSpec(100+float32(k), model, db)); err != nil {
					t.Fatal(err)
				}
			}
			srv.Flush()
			if first != tc.wantFirst {
				t.Fatalf("first dispatched signature %v, want %v", first, tc.wantFirst)
			}
		})
	}
}

// TestServerDeadlineCut: a partial batch dispatches when the simulated clock
// reaches the oldest pending query's deadline minus the configured slack —
// not a moment before.
func TestServerDeadlineCut(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 17, false)
	slo := 1000 * sim.Microsecond
	slack := 100 * sim.Microsecond
	srv, err := NewServer(engine, ServerConfig{
		Tenants:       []TenantConfig{{Name: "t", Weight: 1, SLO: slo}},
		BatchSize:     8,
		DeadlineSlack: slack,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	t0 := engine.Now()
	ch1, err := srv.Submit("t", tenantSpec(1, model, db))
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := srv.Submit("t", tenantSpec(2, model, db))
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.Pending(); n != 2 {
		t.Fatalf("pending = %d before the deadline, want 2", n)
	}
	cut, ok := srv.NextDeadlineCut()
	if !ok {
		t.Fatal("no deadline cut armed for an SLO tenant")
	}
	if want := t0 + sim.Time(slo) - sim.Time(slack); cut != want {
		t.Fatalf("deadline cut at %v, want %v", cut, want)
	}
	// One picosecond short of the cut: still batching.
	srv.AdvanceTo(cut - 1)
	if n := srv.Pending(); n != 2 {
		t.Fatalf("pending = %d one tick before the cut, want 2", n)
	}
	// At the cut: the partial batch dispatches.
	srv.AdvanceTo(cut)
	if n := srv.Pending(); n != 0 {
		t.Fatalf("pending = %d after the cut, want 0", n)
	}
	for i, ch := range []<-chan *QueryResult{ch1, ch2} {
		res := <-ch
		if res == nil || res.Err != nil {
			t.Fatalf("query %d: bad result %+v", i, res)
		}
	}
	snap := engine.MetricsSnapshot()
	if n := snap.Counters["serve_deadline_cuts"]; n != 1 {
		t.Fatalf("serve_deadline_cuts = %d, want 1", n)
	}
	if n := snap.Counters["serve_batches"]; n != 1 {
		t.Fatalf("serve_batches = %d, want 1", n)
	}
}

// TestServedQueryTracesQueueWait: a served query's track starts at its
// arrival. The sched_queue span covers the wait from submission to
// dispatch and ends where the query's own span begins.
func TestServedQueryTracesQueueWait(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 17, false)
	slo := 1000 * sim.Microsecond
	srv, err := NewServer(engine, ServerConfig{
		Tenants:   []TenantConfig{{Name: "t", Weight: 1, SLO: slo}},
		BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	t0 := engine.Now()
	var chs []<-chan *QueryResult
	for sig := float32(1); sig <= 2; sig++ {
		ch, err := srv.Submit("t", tenantSpec(sig, model, db))
		if err != nil {
			t.Fatal(err)
		}
		chs = append(chs, ch)
	}
	cut, ok := srv.NextDeadlineCut()
	if !ok {
		t.Fatal("no deadline cut armed for an SLO tenant")
	}
	srv.AdvanceTo(cut)
	for i, ch := range chs {
		res := <-ch
		if res == nil || res.Err != nil {
			t.Fatalf("query %d: bad result %+v", i, res)
		}
		if s := res.Stages[0]; s.Name != obs.StageSchedQueue || s.Dur != sim.Duration(cut-t0) {
			t.Fatalf("query %d: first stage %+v, want %s of %v", i, s, obs.StageSchedQueue, cut-t0)
		}
	}
	queued, started := map[int64]obs.Span{}, map[int64]obs.Span{}
	for _, s := range engine.Tracer().Spans() {
		switch {
		case s.Cat == "core" && s.Name == obs.StageSchedQueue:
			queued[s.TID] = s
		case s.Cat == "core" && s.Name == "query":
			started[s.TID] = s
		}
	}
	if len(started) != len(chs) {
		t.Fatalf("%d query spans, want %d", len(started), len(chs))
	}
	for id, q := range started {
		w, ok := queued[id]
		if !ok {
			t.Errorf("query %d: no %s span", id, obs.StageSchedQueue)
			continue
		}
		if w.Start != t0 || w.Start+sim.Time(w.Dur) != q.Start {
			t.Errorf("query %d: %s span [%v, %v), want [%v, %v)", id, obs.StageSchedQueue,
				w.Start, w.Start+sim.Time(w.Dur), t0, q.Start)
		}
	}
}

// TestServerPerTenantShedding: a tenant at its queue budget sheds its own
// submissions with the typed ErrQueueFull while every other tenant keeps
// admitting — per-tenant, not global, admission control.
func TestServerPerTenantShedding(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 17, false)
	srv, err := NewServer(engine, ServerConfig{
		Tenants: []TenantConfig{
			{Name: "a", Weight: 1, QueueDepth: 2},
			{Name: "b", Weight: 1, QueueDepth: 2},
		},
		BatchSize: 64, // no cut during the test: queues only drain on Flush
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := tenantSpec(1, model, db)
	for i := 0; i < 2; i++ {
		if _, err := srv.Submit("a", spec); err != nil {
			t.Fatalf("a submit %d: %v", i, err)
		}
	}
	if _, err := srv.Submit("a", spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-budget tenant a returned %v, want ErrQueueFull", err)
	}
	// Tenant b is untouched by a's shedding.
	if _, err := srv.Submit("b", spec); err != nil {
		t.Fatalf("tenant b was shed by tenant a's overload: %v", err)
	}
	stats := srv.TenantStats()
	if s := stats["a"]; s.Submitted != 2 || s.Shed != 1 {
		t.Fatalf("tenant a stats %+v, want Submitted=2 Shed=1", s)
	}
	if s := stats["b"]; s.Submitted != 1 || s.Shed != 0 {
		t.Fatalf("tenant b stats %+v, want Submitted=1 Shed=0", s)
	}
	snap := engine.MetricsSnapshot()
	if n := snap.Counters["serve_shed_a"]; n != 1 {
		t.Fatalf("serve_shed_a = %d, want 1", n)
	}
	if n := snap.Counters["serve_shed_b"]; n != 0 {
		t.Fatalf("serve_shed_b = %d, want 0", n)
	}
	srv.Flush()
	stats = srv.TenantStats()
	if s := stats["a"]; s.Served != 2 {
		t.Fatalf("tenant a served %d, want 2", s.Served)
	}
}

// TestServerOracleEquivalence: results served through the multi-tenant tier
// are bit-identical to direct Query calls on a fresh engine, carry the
// sched_queue stage first, and keep the stage-sum-equals-latency invariant.
func TestServerOracleEquivalence(t *testing.T) {
	opts := DefaultOptions()
	oracle, omodel, odb := newEqEngine(t, opts, 33, false)
	engine, model, db := newEqEngine(t, opts, 33, false)

	qfvs := eqQueries(9, 55)
	specs := make([]QuerySpec, len(qfvs))
	want := make([]*QueryResult, len(qfvs))
	for i, qfv := range qfvs {
		specs[i] = QuerySpec{QFV: qfv, K: 4, Model: model, DB: db}
		ospec := specs[i]
		ospec.Model, ospec.DB = omodel, odb
		id, err := oracle.Query(ospec)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = oracle.GetResults(id); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := NewServer(engine, ServerConfig{
		Tenants: []TenantConfig{
			{Name: "x", Weight: 3},
			{Name: "y", Weight: 1},
		},
		BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan *QueryResult, len(specs))
	for i, spec := range specs {
		tenant := "x"
		if i%3 == 2 {
			tenant = "y"
		}
		ch, err := srv.Submit(tenant, spec)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	srv.Close()
	for i, ch := range chans {
		res, open := <-ch
		if !open || res == nil {
			t.Fatalf("query %d: no result delivered", i)
		}
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		if len(res.TopK) != len(want[i].TopK) {
			t.Fatalf("query %d: %d entries, want %d", i, len(res.TopK), len(want[i].TopK))
		}
		for j := range want[i].TopK {
			if res.TopK[j] != want[i].TopK[j] {
				t.Fatalf("query %d entry %d: %+v != %+v", i, j, res.TopK[j], want[i].TopK[j])
			}
		}
		if res.Stages[0].Name != obs.StageSchedQueue {
			t.Fatalf("query %d: first stage %q, want %q", i, res.Stages[0].Name, obs.StageSchedQueue)
		}
		if sum := obs.SumStages(res.Stages); sum != res.Latency {
			t.Fatalf("query %d: stage sum %v != latency %v", i, sum, res.Latency)
		}
	}
	stats := srv.TenantStats()
	if got := stats["x"].Served + stats["y"].Served; got != int64(len(specs)) {
		t.Fatalf("served %d queries, want %d", got, len(specs))
	}
}

// TestServerErrors: the typed admission errors and config validation.
func TestServerErrors(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	for _, bad := range []ServerConfig{
		{},
		{Tenants: []TenantConfig{{Name: "", Weight: 1}}},
		{Tenants: []TenantConfig{{Name: "a", Weight: 0}}},
		{Tenants: []TenantConfig{{Name: "a", Weight: -1}}},
		{Tenants: []TenantConfig{{Name: "a", Weight: 1}, {Name: "a", Weight: 2}}},
		{Tenants: []TenantConfig{{Name: "a", Weight: 1, QueueDepth: -1}}},
		{Tenants: []TenantConfig{{Name: "a", Weight: 1, SLO: -1}}},
		{Tenants: []TenantConfig{{Name: "a", Weight: 1}}, BatchSize: -1},
		{Tenants: []TenantConfig{{Name: "a", Weight: 1}}, DeadlineSlack: -1},
		{Tenants: []TenantConfig{{Name: "a", Weight: 1}}, AgingRate: -1},
	} {
		if _, err := NewServer(engine, bad); err == nil {
			t.Fatalf("config %+v accepted, want error", bad)
		}
	}

	srv, err := NewServer(engine, ServerConfig{
		Tenants: []TenantConfig{{Name: "a", Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := tenantSpec(1, model, db)
	if _, err := srv.Submit("ghost", spec); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant returned %v, want ErrUnknownTenant", err)
	}
	ch, err := srv.Submit("a", spec)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if res := <-ch; res == nil || res.Err != nil {
		t.Fatalf("Close dropped a queued submission: %+v", res)
	}
	if _, err := srv.Submit("a", spec); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close returned %v, want ErrServerClosed", err)
	}
	srv.Close() // idempotent
	srv.Flush() // no-op on closed server
}

// TestServerFailedQueryAccounting: an invalid spec admitted into a batch
// delivers its typed error, is counted against its tenant's Failed account,
// and leaves its batch-mates (other tenants included) unharmed.
func TestServerFailedQueryAccounting(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	srv, err := NewServer(engine, ServerConfig{
		Tenants: []TenantConfig{
			{Name: "a", Weight: 1},
			{Name: "b", Weight: 1},
		},
		BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good := tenantSpec(1, model, db)
	bad := tenantSpec(2, model, db)
	bad.K = 0
	chGood, err := srv.Submit("a", good)
	if err != nil {
		t.Fatal(err)
	}
	chBad, err := srv.Submit("b", bad)
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if res := <-chGood; res == nil || res.Err != nil || len(res.TopK) == 0 {
		t.Fatalf("good query harmed by batch-mate: %+v", res)
	}
	res, open := <-chBad
	if !open || res == nil || res.Err == nil {
		t.Fatalf("bad query did not deliver its typed error: %+v", res)
	}
	stats := srv.TenantStats()
	if s := stats["a"]; s.Served != 1 || s.Failed != 0 {
		t.Fatalf("tenant a stats %+v, want Served=1 Failed=0", s)
	}
	if s := stats["b"]; s.Served != 0 || s.Failed != 1 {
		t.Fatalf("tenant b stats %+v, want Served=0 Failed=1", s)
	}
	snap := engine.MetricsSnapshot()
	if n := snap.Counters["serve_failed_b"]; n != 1 {
		t.Fatalf("serve_failed_b = %d, want 1", n)
	}
	if n := snap.Counters["serve_served_a"]; n != 1 {
		t.Fatalf("serve_served_a = %d, want 1", n)
	}
}

// TestServerSubmitAt: open-loop arrivals are charged queueing delay from
// their declared arrival time, not from the driver's submit call.
func TestServerSubmitAt(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	srv, err := NewServer(engine, ServerConfig{
		Tenants:   []TenantConfig{{Name: "t", Weight: 1}},
		BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	arrival := engine.Now()
	// The clock runs 500µs past the arrival before the batch cuts.
	srv.AdvanceTo(arrival + sim.Time(500*sim.Microsecond))
	ch, err := srv.SubmitAt("t", tenantSpec(1, model, db), arrival)
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	res := <-ch
	if res == nil || res.Err != nil {
		t.Fatalf("bad result %+v", res)
	}
	if res.Stages[0].Name != obs.StageSchedQueue {
		t.Fatalf("first stage %q, want %q", res.Stages[0].Name, obs.StageSchedQueue)
	}
	if res.Stages[0].Dur < 500*sim.Microsecond {
		t.Fatalf("sched_queue stage %v, want >= 500µs (charged from arrival)", res.Stages[0].Dur)
	}
	if sum := obs.SumStages(res.Stages); sum != res.Latency {
		t.Fatalf("stage sum %v != latency %v", sum, res.Latency)
	}
}

// TestServerDeterminism: two identical sync-mode runs produce identical
// batch compositions, dispatch timestamps, latencies, and stage streams.
func TestServerDeterminism(t *testing.T) {
	type run struct {
		batches    [][]float32
		dispatches []sim.Time
		latencies  []sim.Duration
	}
	do := func() run {
		engine, model, db := newEqEngine(t, DefaultOptions(), 33, true)
		var r run
		srv, err := NewServer(engine, ServerConfig{
			Tenants: []TenantConfig{
				{Name: "gold", Weight: 4, SLO: 5000 * sim.Microsecond},
				{Name: "bronze", Weight: 1, SLO: 20000 * sim.Microsecond},
			},
			BatchSize:     4,
			DeadlineSlack: 200 * sim.Microsecond,
			AgingRate:     0.5,
			onBatch: func(specs []QuerySpec) {
				sig := make([]float32, len(specs))
				for i, s := range specs {
					sig[i] = s.QFV[0]
				}
				r.batches = append(r.batches, sig)
				r.dispatches = append(r.dispatches, engine.Now())
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		qfvs := eqQueries(11, 77)
		chans := make([]<-chan *QueryResult, len(qfvs))
		for i, qfv := range qfvs {
			tenant := "gold"
			if i%3 == 0 {
				tenant = "bronze"
			}
			ch, err := srv.Submit(tenant, QuerySpec{QFV: qfv, K: 3, Model: model, DB: db})
			if err != nil {
				t.Fatal(err)
			}
			chans[i] = ch
		}
		srv.Close()
		for i, ch := range chans {
			res := <-ch
			if res == nil || res.Err != nil {
				t.Fatalf("query %d dropped: %+v", i, res)
			}
			r.latencies = append(r.latencies, res.Latency)
		}
		return r
	}
	a, b := do(), do()
	if len(a.batches) != len(b.batches) {
		t.Fatalf("run A cut %d batches, run B %d", len(a.batches), len(b.batches))
	}
	for i := range a.batches {
		if len(a.batches[i]) != len(b.batches[i]) {
			t.Fatalf("batch %d: sizes differ", i)
		}
		for j := range a.batches[i] {
			if a.batches[i][j] != b.batches[i][j] {
				t.Fatalf("batch %d slot %d: composition differs", i, j)
			}
		}
		if a.dispatches[i] != b.dispatches[i] {
			t.Fatalf("batch %d: dispatch time %v vs %v", i, a.dispatches[i], b.dispatches[i])
		}
	}
	for i := range a.latencies {
		if a.latencies[i] != b.latencies[i] {
			t.Fatalf("query %d: latency %v vs %v", i, a.latencies[i], b.latencies[i])
		}
	}
}

// TestServerManualPump: submissions only enqueue, even from racing
// goroutines — a full batch sits in the queues (and admission budgets keep
// binding) until the caller pumps, which then cuts every ready batch.
func TestServerManualPump(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	srv, err := NewServer(engine, ServerConfig{
		Tenants:   []TenantConfig{{Name: "a", Weight: 1, QueueDepth: 3}},
		BatchSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan *QueryResult, 3)
	var wg sync.WaitGroup
	for i := range chans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, err := srv.Submit("a", tenantSpec(float32(i+1), model, db))
			if err != nil {
				t.Error(err)
			}
			chans[i] = ch
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Three queued over a batch size of 2: nothing runs until the caller asks.
	if got := srv.Pending(); got != 3 {
		t.Fatalf("Pending() = %d before the pump, want 3 (no cut inside Submit)", got)
	}
	if got := engine.MetricsSnapshot().Counters["serve_batches"]; got != 0 {
		t.Fatalf("%d batches cut before the pump, want 0", got)
	}
	// A fourth submission sheds: admission budgets bind even while holding.
	if _, err := srv.Submit("a", tenantSpec(9, model, db)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-budget submit returned %v, want ErrQueueFull", err)
	}
	srv.Pump()
	// The pump cuts the one full batch; the remainder stays queued until a
	// forced drain.
	if got := engine.MetricsSnapshot().Counters["serve_batches"]; got != 1 {
		t.Fatalf("%d batches after the pump, want 1", got)
	}
	if got := srv.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after the pump, want 1", got)
	}
	srv.Flush()
	for i, ch := range chans {
		res, ok := <-ch
		if !ok || res == nil || res.Err != nil {
			t.Fatalf("query %d dropped or failed: %+v", i, res)
		}
	}
	srv.Close()
}

// TestServerSubmitAfterDirectQuery: a submission that follows engine work
// done outside the server (a direct Query) arrives at the engine's current
// clock, so none of that work is charged to it as queue wait.
func TestServerSubmitAfterDirectQuery(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	srv := newScheduler(t, engine, 0, ServerConfig{BatchSize: 1})
	defer srv.Close()
	spec := tenantSpec(1, model, db)
	id, err := engine.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.GetResults(id); err != nil {
		t.Fatal(err)
	}
	ch, err := srv.Submit("", spec)
	if err != nil {
		t.Fatal(err)
	}
	srv.Pump()
	res := <-ch
	if res == nil || res.Err != nil {
		t.Fatalf("bad result %+v", res)
	}
	if head := (obs.Stage{Name: obs.StageSchedQueue}); res.Stages[0] != head {
		t.Fatalf("first stage %+v, want %+v: the direct query was charged as queue wait", res.Stages[0], head)
	}
}
