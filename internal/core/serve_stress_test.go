package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ftl"
	"repro/internal/sim"
)

// stormCounts tallies a submit storm across its submitter goroutines.
type stormCounts struct{ accepted, delivered, shed atomic.Int64 }

// submitStorm pushes one query per vector through the tenant, closed-loop:
// each waits for its result (exactly one per accepted submission, delivered
// by whichever racing Pump, Flush or AdvanceTo runs its batch) before the
// next is submitted. Every other query enters through SubmitAt with the engine's
// current clock. A shed is retried after a pause — the behaviour of a client
// with its own retry budget — unless retryShed is false, in which case it is
// a test failure.
func submitStorm(t *testing.T, srv *Server, tenant string, qfvs [][]float32, model ModelID, db ftl.DBID, retryShed bool, c *stormCounts) {
	for i, qfv := range qfvs {
		spec := QuerySpec{QFV: qfv, K: 3, Model: model, DB: db}
		for {
			var ch <-chan *QueryResult
			var err error
			if i%2 == 0 {
				ch, err = srv.Submit(tenant, spec)
			} else {
				ch, err = srv.SubmitAt(tenant, spec, srv.ds.Now())
			}
			if errors.Is(err, ErrQueueFull) {
				c.shed.Add(1)
				if !retryShed {
					t.Errorf("tenant %q shed with its own queue under budget", tenant)
					return
				}
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				t.Errorf("tenant %q: %v", tenant, err)
				return
			}
			c.accepted.Add(1)
			got := 0
			for res := range ch {
				if res != nil {
					got++
				}
			}
			if got != 1 {
				t.Errorf("tenant %q: %d results for one submission", tenant, got)
			}
			c.delivered.Add(int64(got))
			break
		}
	}
}

// TestServerStress is the -race lockdown for the driven server:
// multi-tenant submit storms race each other, Flush, Pump, AdvanceTo, and
// TenantStats snapshots at roughly 2× the heavy tenant's queue budget.
// Every accepted submission must deliver exactly one result (no lost, no
// duplicated, no deadlocked deliveries), shedding must stay scoped to the
// over-budget tenant — the light tenant, which never queues more than one
// query at a time, must never see ErrQueueFull no matter how hard the heavy
// tenants hammer their own queues.
func TestServerStress(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 33, false)
	srv, err := NewServer(engine, ServerConfig{
		Tenants: []TenantConfig{
			{Name: "heavy", Weight: 8, QueueDepth: 4},
			{Name: "burst", Weight: 2, QueueDepth: 4},
			{Name: "light", Weight: 1, QueueDepth: 4},
		},
		BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	var storm stormCounts
	accepted, delivered, shed := &storm.accepted, &storm.delivered, &storm.shed
	var wg sync.WaitGroup
	submitLoop := func(tenant string, n, seed int, retryShed bool) {
		defer wg.Done()
		submitStorm(t, srv, tenant, eqVectors(n, int64(seed)), model, db, retryShed, &storm)
	}
	// Two heavy submitters share one tenant queue (their combined in-flight
	// demand overruns the depth-4 budget), one mid-rate burst tenant, one
	// strictly closed-loop light tenant that must never be shed.
	wg.Add(5)
	go submitLoop("heavy", 15, 100, true)
	go submitLoop("heavy", 15, 101, true)
	go submitLoop("burst", 12, 200, true)
	go submitLoop("burst", 12, 201, true)
	go submitLoop("light", 10, 300, false)

	// Racing control plane: flushes (so partial batches can't strand the
	// closed-loop submitters), clock advances, pumps, and stats snapshots.
	stop := make(chan struct{})
	var raceWG sync.WaitGroup
	raceWG.Add(1)
	go func() {
		defer raceWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.Flush()
			srv.AdvanceTo(engine.Now() + sim.Time(10*sim.Microsecond))
			srv.Pump()
			srv.TenantStats()
			srv.Pending()
		}
	}()
	wg.Wait()
	close(stop)
	raceWG.Wait()
	srv.Close()
	if _, err := srv.Submit("light", QuerySpec{QFV: eqVectors(1, 9)[0], K: 3, Model: model, DB: db}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close returned %v, want ErrServerClosed", err)
	}

	if delivered.Load() != accepted.Load() {
		t.Fatalf("delivered %d results for %d accepted submissions", delivered.Load(), accepted.Load())
	}
	want := int64(15 + 15 + 12 + 12 + 10)
	if accepted.Load() != want {
		t.Fatalf("accepted %d submissions, want %d", accepted.Load(), want)
	}
	stats := srv.TenantStats()
	var served, statShed, submitted int64
	for _, s := range stats {
		served += s.Served
		statShed += s.Shed
		submitted += s.Submitted
	}
	if served != want || submitted != want {
		t.Fatalf("stats served=%d submitted=%d, want %d", served, submitted, want)
	}
	if statShed != shed.Load() {
		t.Fatalf("stats shed %d, submitters observed %d", statShed, shed.Load())
	}
	if s := stats["light"]; s.Shed != 0 {
		t.Fatalf("light tenant shed %d times despite per-tenant budgets", s.Shed)
	}
	snap := engine.MetricsSnapshot()
	if snap.Counters["sched_errors"] != 0 {
		t.Fatalf("sched_errors = %d, want 0", snap.Counters["sched_errors"])
	}
	if got := snap.Counters["serve_shed"]; int64(got) != shed.Load() {
		t.Fatalf("serve_shed counter %d, submitters observed %d", got, shed.Load())
	}
}

// TestServerStressCloseRace: Close racing in-flight submitters and the
// other batch-running calls must drain every accepted submission (exactly one
// result each) and reject the rest with the typed ErrServerClosed — never a
// hang, never a dropped channel.
func TestServerStressCloseRace(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 17, false)
	srv, err := NewServer(engine, ServerConfig{
		Tenants: []TenantConfig{
			{Name: "a", Weight: 2, QueueDepth: 32},
			{Name: "b", Weight: 1, QueueDepth: 32},
		},
		BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var accepted, delivered, rejected atomic.Int64
	// Close fires once the storm is under way: after the fourth acceptance.
	underway := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := "a"
			if g%2 == 1 {
				tenant = "b"
			}
			for i, qfv := range eqVectors(10, int64(500+g)) {
				spec := QuerySpec{QFV: qfv, K: 2, Model: model, DB: db}
				var ch <-chan *QueryResult
				var err error
				if i%2 == 0 {
					ch, err = srv.Submit(tenant, spec)
				} else {
					ch, err = srv.SubmitAt(tenant, spec, engine.Now())
				}
				if errors.Is(err, ErrServerClosed) {
					rejected.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if accepted.Add(1) == 4 {
					once.Do(func() { close(underway) })
				}
				got := 0
				for res := range ch {
					if res != nil {
						got++
					}
				}
				if got != 1 {
					t.Errorf("%d results for one accepted submission", got)
				}
				delivered.Add(int64(got))
			}
		}(g)
	}
	// Pumps, clock advances and flushes race the storm, before and after Close.
	stop := make(chan struct{})
	var driveWG sync.WaitGroup
	driveWG.Add(1)
	go func() {
		defer driveWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.Pump()
			srv.AdvanceTo(engine.Now() + sim.Time(10*sim.Microsecond))
			srv.Flush()
		}
	}()
	<-underway
	var closeWG sync.WaitGroup
	for c := 0; c < 2; c++ {
		closeWG.Add(1)
		go func() {
			defer closeWG.Done()
			srv.Close() // concurrent Closes must both return
		}()
	}
	closeWG.Wait()
	wg.Wait()
	close(stop)
	driveWG.Wait()
	if delivered.Load() != accepted.Load() {
		t.Fatalf("delivered %d results for %d accepted submissions", delivered.Load(), accepted.Load())
	}
	if got := accepted.Load() + rejected.Load(); got != 40 {
		t.Fatalf("%d submissions accepted or rejected, want all 40", got)
	}
	if _, err := srv.Submit("a", QuerySpec{QFV: eqVectors(1, 9)[0], K: 2, Model: model, DB: db}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close returned %v, want ErrServerClosed", err)
	}
	var served int64
	for _, st := range srv.TenantStats() {
		served += st.Served
	}
	if served != accepted.Load() {
		t.Fatalf("tenant stats served %d, want %d", served, accepted.Load())
	}
}
