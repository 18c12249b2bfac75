package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSchedulerBatchesAndDelivers: submissions coalesce into BatchSize'd
// shared sweeps, every submission channel delivers exactly one result, and
// each result matches the sequential oracle functionally while carrying the
// sched_queue stage (stage sum still equals latency).
func TestSchedulerBatchesAndDelivers(t *testing.T) {
	opts := DefaultOptions()
	oracle, model, db := newEqEngine(t, opts, 33, false)
	engine, _, _ := newEqEngine(t, opts, 33, false)

	qfvs := eqQueries(10, 42)
	specs := make([]QuerySpec, len(qfvs))
	want := make([]*QueryResult, len(qfvs))
	for i, qfv := range qfvs {
		specs[i] = QuerySpec{QFV: qfv, K: 4, Model: model, DB: db}
		id, err := oracle.Query(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = oracle.GetResults(id); err != nil {
			t.Fatal(err)
		}
	}

	sched := NewScheduler(engine, SchedulerConfig{QueueDepth: 32, BatchSize: 4})
	defer sched.Close()
	chans := make([]<-chan *QueryResult, len(specs))
	for i, spec := range specs {
		ch, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	sched.Flush() // 10 = 4 + 4 + flushed tail of 2
	for i, ch := range chans {
		res, open := <-ch
		if !open || res == nil {
			t.Fatalf("query %d: no result delivered", i)
		}
		if _, again := <-ch; again {
			t.Fatalf("query %d: second result delivered", i)
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
	snap := engine.MetricsSnapshot()
	if n := snap.Counters["sched_batches"]; n != 3 {
		t.Fatalf("sched_batches = %d, want 3", n)
	}
	if n := snap.Counters["sched_submitted"]; n != 10 {
		t.Fatalf("sched_submitted = %d, want 10", n)
	}
	if n := snap.Counters["core_shared_scans"]; n != 3 {
		t.Fatalf("core_shared_scans = %d, want 3", n)
	}
}

// TestSchedulerBackpressure: with the worker deterministically stalled
// inside a dispatched batch, submissions beyond QueueDepth return the typed
// ErrQueueFull immediately instead of blocking, and every accepted
// submission is still served after the stall lifts.
func TestSchedulerBackpressure(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	sched := NewScheduler(engine, SchedulerConfig{
		QueueDepth: 2,
		BatchSize:  1,
		OnBatch: func([]QuerySpec) {
			once.Do(func() {
				close(entered)
				<-release
			})
		},
	})
	defer sched.Close()

	spec := QuerySpec{QFV: eqVectors(1, 3)[0], K: 2, Model: model, DB: db}
	var chans []<-chan *QueryResult
	ch, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	chans = append(chans, ch)
	<-entered // the worker holds submission 1; the queue is empty again
	for i := 0; i < 2; i++ {
		if ch, err = sched.Submit(spec); err != nil {
			t.Fatalf("submission %d: %v", i+2, err)
		}
		chans = append(chans, ch)
	}
	if _, err := sched.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit returned %v, want ErrQueueFull", err)
	}
	close(release)
	for i, ch := range chans {
		if res := <-ch; res == nil {
			t.Fatalf("accepted submission %d was dropped", i)
		}
	}
	if n := engine.MetricsSnapshot().Counters["sched_rejected"]; n != 1 {
		t.Fatalf("sched_rejected = %d, want 1", n)
	}
	if _, err := sched.Submit(spec); err != nil {
		t.Fatalf("post-backpressure submit: %v", err)
	}
	sched.Flush()
}

// TestSchedulerClosed: Submit after Close returns the typed error, and
// Close flushes queued work first.
func TestSchedulerClosed(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	sched := NewScheduler(engine, SchedulerConfig{BatchSize: 64})
	spec := QuerySpec{QFV: eqVectors(1, 3)[0], K: 2, Model: model, DB: db}
	ch, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	sched.Close()
	if res := <-ch; res == nil {
		t.Fatal("Close dropped a queued submission")
	}
	if _, err := sched.Submit(spec); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("submit after close returned %v, want ErrSchedulerClosed", err)
	}
	sched.Close() // idempotent
	sched.Flush() // no-op on closed scheduler
}

// TestSchedulerWindowDispatch: a partial batch dispatches when the batching
// window fires. The window clock is injected, so the test drives it
// deterministically.
func TestSchedulerWindowDispatch(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	timerCh := make(chan time.Time)
	var armed atomic.Int64
	sched := NewScheduler(engine, SchedulerConfig{
		BatchSize:   8,
		BatchWindow: time.Millisecond,
		Timer: func(d time.Duration) <-chan time.Time {
			armed.Add(1)
			return timerCh
		},
	})
	defer sched.Close()
	spec := QuerySpec{QFV: eqVectors(1, 3)[0], K: 2, Model: model, DB: db}
	ch1, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The unbuffered send rendezvouses only once the worker has dequeued
	// the submission (arming the window) and is waiting on the timer — so
	// a partial batch of one dispatches on the window, not on count.
	timerCh <- time.Time{}
	if res := <-ch1; res == nil {
		t.Fatal("window dispatch dropped the submission")
	}
	if got := armed.Load(); got != 1 {
		t.Fatalf("window timer armed %d times, want 1 (once per 0→1 pending edge)", got)
	}
	if n := engine.MetricsSnapshot().Counters["sched_batches"]; n != 1 {
		t.Fatalf("sched_batches = %d, want 1", n)
	}
}

// TestSchedulerFallbackOnBadSpec: a batch containing an invalid spec falls
// back to independent queries — the good specs still complete without an
// error, the bad one delivers exactly one result carrying the typed error
// (never a silently closed channel), and the fallback and error counters
// record the event.
func TestSchedulerFallbackOnBadSpec(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	sched := NewScheduler(engine, SchedulerConfig{BatchSize: 3})
	defer sched.Close()
	good := QuerySpec{QFV: eqVectors(1, 3)[0], K: 2, Model: model, DB: db}
	bad := good
	bad.K = 0
	chG1, err := sched.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	chB, err := sched.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	chG2, err := sched.Submit(good)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range []<-chan *QueryResult{chG1, chG2} {
		res := <-ch
		if res == nil {
			t.Fatalf("good query %d dropped by fallback", i+1)
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
	if n := snap.Counters["sched_fallback"]; n != 1 {
		t.Fatalf("sched_fallback = %d, want 1", n)
	}
}

// TestSchedulerAllBadBatch covers the fallback path when every spec in the
// batch is invalid: each submission delivers its own typed error, the
// fallback is counted once per batch, and the error counter counts each
// failed query.
func TestSchedulerAllBadBatch(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 7, false)
	sched := NewScheduler(engine, SchedulerConfig{BatchSize: 2})
	defer sched.Close()
	bad := QuerySpec{QFV: eqVectors(1, 3)[0], K: 0, Model: model, DB: db}
	ch1, err := sched.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := sched.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
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
	if n := snap.Counters["sched_fallback"]; n != 1 {
		t.Fatalf("sched_fallback = %d, want 1", n)
	}
	// The batch never executed a sweep: no shared scans, no batches beyond
	// the dispatched one.
	if n := snap.Counters["core_shared_scans"]; n != 0 {
		t.Fatalf("core_shared_scans = %d, want 0", n)
	}
}

// TestSchedulerStress is the -race lockdown: submitters race each other,
// WriteDB, SetQC, direct Query/GetResults, and Flush, and every accepted
// submission must deliver exactly one result (no lost, no duplicated, no
// deadlocked deliveries).
func TestSchedulerStress(t *testing.T) {
	engine, model, db := newEqEngine(t, DefaultOptions(), 33, false)
	sched := NewScheduler(engine, SchedulerConfig{QueueDepth: 16, BatchSize: 4})
	const submitters = 6
	const perSubmitter = 15

	var accepted, delivered, rejected atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			qfvs := eqVectors(perSubmitter, int64(100+s))
			for _, qfv := range qfvs {
				spec := QuerySpec{QFV: qfv, K: 3, Model: model, DB: db}
				for {
					ch, err := sched.Submit(spec)
					if errors.Is(err, ErrQueueFull) {
						rejected.Add(1)
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("submitter %d: %v", s, err)
						return
					}
					accepted.Add(1)
					n := 0
					for res := range ch {
						if res != nil {
							n++
						}
					}
					if n != 1 {
						t.Errorf("submitter %d: %d results for one submission", s, n)
					}
					delivered.Add(int64(n))
					break
				}
			}
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
			sched.Flush()
		}
	}()
	wg.Wait()
	close(stop)
	raceWG.Wait()
	sched.Close()

	if got, want := accepted.Load(), int64(submitters*perSubmitter); got != want {
		t.Fatalf("accepted %d submissions, want %d", got, want)
	}
	if delivered.Load() != accepted.Load() {
		t.Fatalf("delivered %d results for %d accepted submissions", delivered.Load(), accepted.Load())
	}
	snap := engine.MetricsSnapshot()
	if snap.Counters["sched_rejected"] != rejected.Load() {
		t.Fatalf("sched_rejected = %d, test observed %d", snap.Counters["sched_rejected"], rejected.Load())
	}
	if snap.Counters["sched_errors"] != 0 {
		t.Fatalf("sched_errors = %d, want 0", snap.Counters["sched_errors"])
	}
}

// TestSchedulerDeterminism: with no batching window (no wall clock in the
// loop), the same submission order yields identical batch compositions,
// identical simulated dispatch timestamps, and identical per-query
// latencies and stages across two independent runs.
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
		// The worker stalls until every query is admitted: a batch that ran
		// while later Submits were still stamping their submit time would
		// put wall-clock order into the sched_queue stage.
		admitted := make(chan struct{})
		sched := NewScheduler(engine, SchedulerConfig{
			QueueDepth: 64,
			BatchSize:  4,
			OnBatch: func(specs []QuerySpec) {
				<-admitted
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
			ch, err := sched.Submit(QuerySpec{QFV: qfv, K: 3, Model: model, DB: db})
			if err != nil {
				t.Fatal(err)
			}
			chans[i] = ch
		}
		close(admitted)
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
	if len(a.batches) != len(b.batches) {
		t.Fatalf("run A cut %d batches, run B %d", len(a.batches), len(b.batches))
	}
	for i := range a.batches {
		if len(a.batches[i]) != len(b.batches[i]) {
			t.Fatalf("batch %d: sizes %d vs %d", i, len(a.batches[i]), len(b.batches[i]))
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
	if len(a.stages) != len(b.stages) {
		t.Fatalf("stage streams differ in length: %d vs %d", len(a.stages), len(b.stages))
	}
	for i := range a.stages {
		if a.stages[i] != b.stages[i] {
			t.Fatalf("stage %d: %q vs %q", i, a.stages[i], b.stages[i])
		}
	}
}
