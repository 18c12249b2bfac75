package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// A plain batching scheduler is a Server with one weight-1 tenant, no SLO
// and no aging: FIFO admission, cuts when full, on Flush and on Close. The
// TestScheduler* suite pins that configuration. Submissions use the empty
// tenant name, which a one-tenant server resolves to its sole tenant.

// newScheduler starts the one-tenant configuration (depth 0 = default).
func newScheduler(t *testing.T, ds *DeepStore, depth int, cfg ServerConfig) *Server {
	t.Helper()
	cfg.Tenants = []TenantConfig{{Name: "q", Weight: 1, QueueDepth: depth}}
	srv, err := NewServer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestSchedulerBatchesAndDelivers: with the query cache on and batch widths
// 1, 7 and 64, submissions coalesce FIFO into BatchSize'd shared sweeps,
// every submission channel delivers exactly once, and each result equals the
// QueryMulti oracle's once its sched_queue stage — whose duration is the
// simulated time the earlier batches took — is removed.
func TestSchedulerBatchesAndDelivers(t *testing.T) {
	for _, q := range []int{1, 7, 64} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			opts := DefaultOptions()
			oracle, model, db := newEqEngine(t, opts, 33, true)
			engine, _, _ := newEqEngine(t, opts, 33, true)

			qfvs := eqQueries(2*q+3, 42) // full batches and a flushed partial tail
			specs := make([]QuerySpec, len(qfvs))
			for i, qfv := range qfvs {
				specs[i] = QuerySpec{QFV: qfv, K: 4, Model: model, DB: db}
			}
			want := make([]*QueryResult, 0, len(specs))
			wantWait := make([]sim.Duration, 0, len(specs))
			var wantCuts []int
			t0 := oracle.Now()
			for off := 0; off < len(specs); off += q {
				started := oracle.Now()
				ids, err := oracle.QueryMulti(specs[off:min(off+q, len(specs))])
				if err != nil {
					t.Fatal(err)
				}
				wantCuts = append(wantCuts, len(ids))
				for _, id := range ids {
					res, err := oracle.GetResults(id)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, res)
					wantWait = append(wantWait, sim.Duration(started-t0))
				}
			}

			var dispatched []QuerySpec
			var cuts []int
			// Submit only admits, so all queries arrive at t0 and batch b
			// waits out batches 0..b-1 inside the Flush.
			sched := newScheduler(t, engine, len(specs), ServerConfig{
				BatchSize: q,
				onBatch: func(batch []QuerySpec) {
					dispatched = append(dispatched, batch...)
					cuts = append(cuts, len(batch))
				},
			})
			defer sched.Close()
			chans := make([]<-chan *QueryResult, len(specs))
			for i, spec := range specs {
				ch, err := sched.Submit("", spec)
				if err != nil {
					t.Fatal(err)
				}
				chans[i] = ch
			}
			sched.Flush()
			if !reflect.DeepEqual(cuts, wantCuts) {
				t.Fatalf("batch sizes %v, want %v", cuts, wantCuts)
			}
			if !reflect.DeepEqual(dispatched, specs) {
				t.Fatal("dispatch order is not admission order")
			}
			for i, ch := range chans {
				res, open := <-ch
				if !open || res == nil {
					t.Fatalf("query %d: no result delivered", i)
				}
				if _, again := <-ch; again {
					t.Fatalf("query %d: second result delivered", i)
				}
				if sum := obs.SumStages(res.Stages); sum != res.Latency {
					t.Fatalf("query %d: stage sum %v != latency %v", i, sum, res.Latency)
				}
				if head := (obs.Stage{Name: obs.StageSchedQueue, Dur: wantWait[i]}); res.Stages[0] != head {
					t.Fatalf("query %d: first stage %+v, want %+v", i, res.Stages[0], head)
				}
				res.Latency -= wantWait[i]
				res.Stages = res.Stages[1:]
				if !reflect.DeepEqual(res, want[i]) {
					t.Fatalf("query %d: %+v, oracle %+v", i, res, want[i])
				}
			}
			snap := engine.MetricsSnapshot()
			if n := snap.Counters["serve_batches"]; n != int64(len(wantCuts)) {
				t.Fatalf("serve_batches = %d, want %d", n, len(wantCuts))
			}
			if n := snap.Counters["serve_submitted"]; n != int64(len(specs)) {
				t.Fatalf("serve_submitted = %d, want %d", n, len(specs))
			}
		})
	}
}

// TestSchedulerBackpressure: submissions beyond the tenant's queue budget
// return the typed ErrQueueFull immediately instead of waiting for room,
// and every accepted submission is served once the caller pumps.
func TestSchedulerBackpressure(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	sched := newScheduler(t, engine, 2, ServerConfig{BatchSize: 1})
	defer sched.Close()

	spec := QuerySpec{QFV: eqVectors(1, 3)[0], K: 2, Model: model, DB: db}
	var chans []<-chan *QueryResult
	for i := 0; i < 2; i++ {
		ch, err := sched.Submit("", spec)
		if err != nil {
			t.Fatalf("submission %d: %v", i+1, err)
		}
		chans = append(chans, ch)
	}
	if _, err := sched.Submit("", spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit returned %v, want ErrQueueFull", err)
	}
	sched.Pump()
	for i, ch := range chans {
		if res := <-ch; res == nil {
			t.Fatalf("accepted submission %d was dropped", i)
		}
	}
	if n := engine.MetricsSnapshot().Counters["serve_shed"]; n != 1 {
		t.Fatalf("serve_shed = %d, want 1", n)
	}
	if _, err := sched.Submit("", spec); err != nil {
		t.Fatalf("post-backpressure submit: %v", err)
	}
	sched.Flush()
}

// TestSchedulerClosed: Submit after Close returns the typed error, and
// Close flushes queued work first.
func TestSchedulerClosed(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	sched := newScheduler(t, engine, 0, ServerConfig{BatchSize: 64})
	spec := QuerySpec{QFV: eqVectors(1, 3)[0], K: 2, Model: model, DB: db}
	ch, err := sched.Submit("", spec)
	if err != nil {
		t.Fatal(err)
	}
	sched.Close()
	if res := <-ch; res == nil {
		t.Fatal("Close dropped a queued submission")
	}
	if _, err := sched.Submit("", spec); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close returned %v, want ErrServerClosed", err)
	}
	sched.Close() // idempotent
	sched.Flush() // no-op on a closed server
}

// TestSchedulerFallbackOnBadSpec: a batch containing an invalid spec runs
// its good specs as one shared sweep — they complete without an error — and
// the bad one delivers exactly one result carrying the typed error (never a
// silently closed channel), counted in sched_errors.
func TestSchedulerFallbackOnBadSpec(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	sched := newScheduler(t, engine, 0, ServerConfig{BatchSize: 3})
	defer sched.Close()
	good := QuerySpec{QFV: eqVectors(1, 3)[0], K: 2, Model: model, DB: db}
	bad := good
	bad.K = 0
	chG1, err := sched.Submit("", good)
	if err != nil {
		t.Fatal(err)
	}
	chB, err := sched.Submit("", bad)
	if err != nil {
		t.Fatal(err)
	}
	chG2, err := sched.Submit("", good)
	if err != nil {
		t.Fatal(err)
	}
	sched.Pump() // a full batch of three
	for i, ch := range []<-chan *QueryResult{chG1, chG2} {
		res := <-ch
		if res == nil {
			t.Fatalf("good query %d dropped beside a bad one", i+1)
		}
		if res.Err != nil {
			t.Fatalf("good query %d delivered error %v", i+1, res.Err)
		}
		if len(res.TopK) == 0 {
			t.Fatalf("good query %d delivered no results", i+1)
		}
	}
	res, open := <-chB
	if !open || res == nil {
		t.Fatal("bad query's channel closed without a result — callers cannot tell failure from drop")
	}
	if res.Err == nil {
		t.Fatalf("bad query delivered %+v without an error", res)
	}
	if len(res.TopK) != 0 {
		t.Fatalf("failed query delivered top-K entries: %+v", res.TopK)
	}
	if _, again := <-chB; again {
		t.Fatal("bad query's channel delivered a second value")
	}
	snap := engine.MetricsSnapshot()
	if n := snap.Counters["sched_errors"]; n != 1 {
		t.Fatalf("sched_errors = %d, want 1", n)
	}
	if n, m := snap.Counters["core_shared_scans"], snap.Counters["core_shared_scan_queries"]; n != 1 || m != 2 {
		t.Fatalf("core_shared_scans = %d over %d queries, want 1 over the 2 good ones", n, m)
	}
}

// TestSchedulerAllBadBatch: when every spec in the batch is invalid, each
// submission delivers its own typed error, the error counter counts each
// failed query, and no shared batch runs.
func TestSchedulerAllBadBatch(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	sched := newScheduler(t, engine, 0, ServerConfig{BatchSize: 2})
	defer sched.Close()
	bad := QuerySpec{QFV: eqVectors(1, 3)[0], K: 0, Model: model, DB: db}
	ch1, err := sched.Submit("", bad)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := sched.Submit("", bad)
	if err != nil {
		t.Fatal(err)
	}
	sched.Pump()
	for i, ch := range []<-chan *QueryResult{ch1, ch2} {
		res, open := <-ch
		if !open || res == nil {
			t.Fatalf("bad query %d: channel closed without a result", i+1)
		}
		if res.Err == nil {
			t.Fatalf("bad query %d: delivered without an error", i+1)
		}
	}
	snap := engine.MetricsSnapshot()
	if n := snap.Counters["sched_errors"]; n != 2 {
		t.Fatalf("sched_errors = %d, want 2", n)
	}
	if n := snap.Counters["core_multi_batches"]; n != 0 {
		t.Fatalf("core_multi_batches = %d, want 0", n)
	}
	// The batch never executed a sweep.
	if n := snap.Counters["core_shared_scans"]; n != 0 {
		t.Fatalf("core_shared_scans = %d, want 0", n)
	}
}

// TestDeliveredResultsLeaveTable: a result delivered on a submission channel
// has no other reader, so it never stays in the engine's result table — in
// a clean batch and in one holding a bad spec alike, each one shared sweep —
// while a direct Query's result stays re-fetchable.
func TestDeliveredResultsLeaveTable(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	sched := newScheduler(t, engine, 0, ServerConfig{BatchSize: 3})
	good := QuerySpec{QFV: eqVectors(1, 3)[0], K: 2, Model: model, DB: db}
	bad := good
	bad.K = 0
	// A clean batch of three, then a batch holding a bad spec.
	specs := []QuerySpec{good, good, good, good, bad, good}
	chans := make([]<-chan *QueryResult, len(specs))
	for i, spec := range specs {
		var err error
		if chans[i], err = sched.Submit("", spec); err != nil {
			t.Fatal(err)
		}
	}
	sched.Close()
	for i, ch := range chans {
		if res := <-ch; (res.Err != nil) != (specs[i].K == 0) {
			t.Fatalf("submission %d delivered %+v", i, res)
		}
	}
	if n := engine.MetricsSnapshot().Counters["core_shared_scans"]; n != 2 {
		t.Fatalf("core_shared_scans = %d, want 2 (one per batch)", n)
	}
	id, err := engine.Query(good)
	if err != nil {
		t.Fatal(err)
	}
	for fetch := 0; fetch < 2; fetch++ {
		if _, err := engine.GetResults(id); err != nil {
			t.Fatalf("direct query fetch %d: %v", fetch, err)
		}
	}
	engine.mu.Lock()
	n := len(engine.queries)
	engine.mu.Unlock()
	if n != 1 {
		t.Fatalf("result table holds %d entries after 5 deliveries and one direct query, want 1", n)
	}
}

// TestSchedulerStress is the -race lockdown for the one-tenant
// configuration: submitters race each other, WriteDB, SetQC, direct
// Query/GetResults, and the Pump, AdvanceTo and Flush calls, and
// every accepted submission must deliver exactly one result (no lost, no
// duplicated, no deadlocked deliveries).
func TestSchedulerStress(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 33, false)
	sched := newScheduler(t, engine, 16, ServerConfig{BatchSize: 4})
	const submitters = 6
	const perSubmitter = 15

	var storm stormCounts
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			submitStorm(t, sched, "", eqVectors(perSubmitter, int64(100+s)), model, db, true, &storm)
		}(s)
	}
	// Racing mutators: new databases, cache reconfiguration, direct
	// queries with their own GetResults, and periodic flushes.
	stop := make(chan struct{})
	var raceWG sync.WaitGroup
	raceWG.Add(1)
	go func() {
		defer raceWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Cap the extra databases: the simulated device has finitely
			// many free flash blocks and this loop is unbounded.
			if i < 16 {
				if _, err := engine.WriteDB(eqVectors(5, int64(i))); err != nil {
					t.Errorf("WriteDB: %v", err)
				}
			}
			if err := engine.SetQC(perfectQCN(16), 1.0, 4, 0.2); err != nil {
				t.Errorf("SetQC: %v", err)
			}
			id, err := engine.Query(QuerySpec{QFV: eqVectors(1, int64(i))[0], K: 2, Model: model, DB: db})
			if err != nil {
				t.Errorf("Query: %v", err)
			} else if _, err := engine.GetResults(id); err != nil {
				t.Errorf("GetResults: %v", err)
			}
			sched.Pump()
			sched.AdvanceTo(engine.Now() + sim.Time(10*sim.Microsecond))
			sched.Flush()
		}
	}()
	wg.Wait()
	close(stop)
	raceWG.Wait()
	sched.Close()
	if _, err := sched.Submit("", QuerySpec{QFV: eqVectors(1, 9)[0], K: 2, Model: model, DB: db}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close returned %v, want ErrServerClosed", err)
	}

	if got, want := storm.accepted.Load(), int64(submitters*perSubmitter); got != want {
		t.Fatalf("accepted %d submissions, want %d", got, want)
	}
	if storm.delivered.Load() != storm.accepted.Load() {
		t.Fatalf("delivered %d results for %d accepted submissions", storm.delivered.Load(), storm.accepted.Load())
	}
	snap := engine.MetricsSnapshot()
	if snap.Counters["serve_shed"] != storm.shed.Load() {
		t.Fatalf("serve_shed = %d, test observed %d", snap.Counters["serve_shed"], storm.shed.Load())
	}
	if snap.Counters["sched_errors"] != 0 {
		t.Fatalf("sched_errors = %d, want 0", snap.Counters["sched_errors"])
	}
}

// TestSchedulerDeterminism: no wall clock enters batch composition, so the
// same submission order yields identical batch compositions, identical
// simulated dispatch timestamps, and identical per-query latencies and
// stages across two independent runs.
func TestSchedulerDeterminism(t *testing.T) {
	type run struct {
		batches    [][]float32 // first QFV element of each spec, per batch
		dispatches []sim.Time
		latencies  []sim.Duration
		stages     []string
	}
	do := func() run {
		engine, model, db := newEqEngine(t, DefaultOptions(), 33, true)
		var r run
		sched := newScheduler(t, engine, 64, ServerConfig{
			BatchSize: 4,
			onBatch: func(specs []QuerySpec) {
				sig := make([]float32, len(specs))
				for i, s := range specs {
					sig[i] = s.QFV[0]
				}
				r.batches = append(r.batches, sig)
				r.dispatches = append(r.dispatches, engine.Now())
			},
		})
		qfvs := eqQueries(13, 77)
		chans := make([]<-chan *QueryResult, len(qfvs))
		for i, qfv := range qfvs {
			ch, err := sched.Submit("", QuerySpec{QFV: qfv, K: 3, Model: model, DB: db})
			if err != nil {
				t.Fatal(err)
			}
			chans[i] = ch
		}
		sched.Close()
		for i, ch := range chans {
			res := <-ch
			if res == nil {
				t.Fatalf("query %d dropped", i)
			}
			r.latencies = append(r.latencies, res.Latency)
			for _, st := range res.Stages {
				r.stages = append(r.stages, fmt.Sprintf("%d:%s:%d", i, st.Name, st.Dur))
			}
		}
		return r
	}
	a, b := do(), do()
	if len(a.batches) != 4 {
		t.Fatalf("run A cut %d batches, want 4 (13 = 4+4+4+1)", len(a.batches))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("runs differ:\nA %+v\nB %+v", a, b)
	}
}
