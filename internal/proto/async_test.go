package proto

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/workload"
)

// asyncFixture builds one engine exposed through two clients: a plain
// synchronous one (the oracle path) and one whose handler carries a
// batching server for queryAsync/await — one tenant of the given queue
// depth unless cfg names its own.
func asyncFixture(t *testing.T, depth int, cfg core.ServerConfig) (async, oracle *Client, model core.ModelID, dbID ftl.DBID) {
	t.Helper()
	ds, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName("TextQA")
	if err != nil {
		t.Fatal(err)
	}
	app.SCN.InitRandom(3)
	db := workload.NewFeatureDB(app, 96, 5)
	if dbID, err = ds.WriteDB(db.Vectors); err != nil {
		t.Fatal(err)
	}
	if model, err = ds.LoadModelNetwork(app.SCN); err != nil {
		t.Fatal(err)
	}
	if cfg.Tenants == nil {
		cfg.Tenants = []core.TenantConfig{{Name: "host", Weight: 1, QueueDepth: depth}}
	}
	sched, err := core.NewServer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	async = NewClient(Loopback{Handler: &Handler{DS: ds, Sched: sched}})
	oracle = NewClient(Loopback{Handler: &Handler{DS: ds}})
	return async, oracle, model, dbID
}

// TestClientQueryAsyncMatchesQuery drives four queries through
// queryAsync/await (coalesced into shared sweeps by the server) and
// checks the answers against the synchronous query path on the same engine.
func TestClientQueryAsyncMatchesQuery(t *testing.T) {
	async, oracle, model, dbID := asyncFixture(t, 0, core.ServerConfig{BatchSize: 2})
	app, _ := workload.ByName("TextQA")
	qfvs := workload.NewFeatureDB(app, 4, 9).Vectors

	want := make([]Results, len(qfvs))
	for i, q := range qfvs {
		qid, err := oracle.Query(q, 3, model, dbID, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = oracle.GetResults(qid); err != nil {
			t.Fatal(err)
		}
	}

	tickets := make([]uint64, len(qfvs))
	for i, q := range qfvs {
		tk, err := async.QueryAsync(q, 3, model, dbID, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		got, err := async.Await(tk)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.IDs) != len(want[i].IDs) {
			t.Fatalf("query %d: %d rows, want %d", i, len(got.IDs), len(want[i].IDs))
		}
		for j := range want[i].IDs {
			if got.IDs[j] != want[i].IDs[j] || got.Scores[j] != want[i].Scores[j] ||
				got.Objects[j] != want[i].Objects[j] {
				t.Fatalf("query %d rank %d differs between async and sync paths", i, j)
			}
		}
		if got.Latency <= 0 {
			t.Fatalf("query %d: no latency in async completion", i)
		}
	}
}

// TestClientAsyncTicketSemantics: tickets are single-use, unknown tickets
// complete with StatusNotFound, a failed query's ticket surfaces an error,
// a handler without a server rejects queryAsync as unsupported, and one whose
// server has several tenants rejects it as an invalid field (the wire
// carries no tenant).
func TestClientAsyncTicketSemantics(t *testing.T) {
	async, _, model, dbID := asyncFixture(t, 0, core.ServerConfig{BatchSize: 1})
	app, _ := workload.ByName("TextQA")
	q := workload.NewFeatureDB(app, 1, 9).Vectors[0]

	tk, err := async.QueryAsync(q, 3, model, dbID, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := async.Await(tk); err != nil {
		t.Fatal(err)
	}
	if _, err := async.Await(tk); err == nil {
		t.Fatal("redeemed a ticket twice")
	}
	if _, err := async.Await(999); err == nil {
		t.Fatal("unknown ticket accepted")
	}
	// A spec referencing an unknown database is admitted (validation runs at
	// dispatch), fails in its batch, and surfaces on await.
	badTk, err := async.QueryAsync(q, 3, model, dbID+99, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := async.Await(badTk); err == nil {
		t.Fatal("failed query's ticket redeemed successfully")
	}

	// No server attached → unsupported.
	ds, err := core.New(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bare := NewClient(Loopback{Handler: &Handler{DS: ds}})
	if _, err := bare.QueryAsync(q, 3, 1, 1, 0, 0, nil); err == nil {
		t.Fatal("queryAsync accepted without a server")
	}

	multi, _, model, dbID := asyncFixture(t, 0, core.ServerConfig{
		Tenants: []core.TenantConfig{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}},
	})
	if _, err := multi.QueryAsync(q, 3, model, dbID, 0, 0, nil); err == nil {
		t.Fatal("queryAsync accepted by a two-tenant server")
	} else if !strings.Contains(err.Error(), StatusInvalidField.String()) {
		t.Fatalf("err = %v, want %s", err, StatusInvalidField)
	}
}

// TestAwaitCutsPartialBatch: an await on a ticket whose batch is still
// waiting for companions cuts the batch — the awaiting connection is blocked
// and could never submit the batch-mate itself.
func TestAwaitCutsPartialBatch(t *testing.T) {
	async, _, model, dbID := asyncFixture(t, 0, core.ServerConfig{BatchSize: 2})
	app, _ := workload.ByName("TextQA")
	q := workload.NewFeatureDB(app, 1, 9).Vectors[0]
	tk, err := async.QueryAsync(q, 3, model, dbID, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := async.Await(tk)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("await on a half-full batch still blocked after 3 s")
	}
}

// TestClientAsyncBackpressure: a stalled server whose tenant has a depth-1
// budget makes queryAsync complete with StatusCapacity — the wire-level form
// of core.ErrQueueFull — instead of blocking the submitter.
func TestClientAsyncBackpressure(t *testing.T) {
	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	cfg := core.ServerConfig{
		BatchSize: 1,
		OnBatch: func([]core.QuerySpec) {
			once.Do(func() {
				close(entered)
				<-release
			})
		},
	}
	async, _, model, dbID := asyncFixture(t, 1, cfg)
	app, _ := workload.ByName("TextQA")
	q := workload.NewFeatureDB(app, 1, 9).Vectors[0]

	// First submission occupies the worker (stalled in OnBatch)…
	tk1, err := async.QueryAsync(q, 3, model, dbID, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	// …second fills the depth-1 queue…
	tk2, err := async.QueryAsync(q, 3, model, dbID, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// …third must bounce with a capacity status.
	if _, err := async.QueryAsync(q, 3, model, dbID, 0, 0, nil); err == nil {
		t.Fatal("over-capacity submission accepted")
	} else if !strings.Contains(err.Error(), StatusCapacity.String()) {
		t.Fatalf("err = %v, want %s", err, StatusCapacity)
	}
	close(release)
	for _, tk := range []uint64{tk1, tk2} {
		if _, err := async.Await(tk); err != nil {
			t.Fatal(err)
		}
	}
}
