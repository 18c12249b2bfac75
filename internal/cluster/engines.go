package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topk"
)

// Sentinel errors distinguishing why a shard is missing from an answer.
var (
	// ErrShardTimeout marks a shard that had not reported when the
	// Tolerance.ShardTimeout expired.
	ErrShardTimeout = errors.New("cluster: shard timed out")
	// ErrShardSkipped marks a straggler whose answer was not awaited
	// because the quorum had already been reached.
	ErrShardSkipped = errors.New("cluster: shard skipped after quorum")
	// ErrRebalanceActive rejects admin operations (WriteDB, LoadModel,
	// AppendDB, ReorgShard) while an online rebalance is mid-move; queries
	// are unaffected.
	ErrRebalanceActive = errors.New("cluster: rebalance in progress")
)

// Engines is the functional counterpart of ShardedScan: a Fig. 10b
// scale-out deployment of full DeepStore engines, one per simulated SSD,
// each holding replica groups over slices of one materialized feature
// database. A query fans out along the current routing-table generation
// (see routing.go) — every route contributes one range-limited sub-query —
// and the per-route top-K queues reduce into a global answer.
type Engines struct {
	// opts is the engine configuration every shard (including shards added
	// by an online rebalance) is created with.
	opts core.Options

	// admin serializes admin operations and guards the construction state
	// below. Queries never take it: they read the published state pointer.
	admin sync.Mutex
	// groups[s] lists shard s's read replicas (primary first). Every
	// replica holds the same slice of the database and the same model, so a
	// query can route to any of them; routing rotates across calls and
	// fails over when the routed replica draws an injected fault.
	groups [][]*core.DeepStore
	// models[s] is shard s's registered model (0 until LoadModel).
	models []core.ModelID
	// net is the last loaded network, reloaded onto shards an online
	// rebalance adds.
	net *nn.Network
	// routes is the admin-side routing table (models resolved at publish).
	routes []route
	total  int64
	// rebalancing interlocks admin ops while a Rebalancer is mid-move.
	rebalancing bool

	// state is the published generation queries snapshot (routing.go).
	state atomic.Pointer[clusterState]

	tol   Tolerance
	inj   *fault.Injector
	calls atomic.Uint64 // Queries invocations, for per-call fault streams

	// reg and tracer are the cluster's own observability sinks (each shard
	// engine additionally keeps its own). Shard fan-out spans are laid on a
	// synthetic cluster timeline (obsClock): the shard engines' simulated
	// clocks are independent, so batch b starts where batch b−1's slowest
	// shard finished.
	reg    *obs.Registry
	tracer *obs.Tracer

	// obsMu guards the synthetic timeline and the heat profile, which
	// concurrent query batches update.
	obsMu    sync.Mutex
	obsClock sim.Time
	// heat[g] counts how often global feature g appeared in a merged top-K
	// — the demand signal PlanRebalance folds into stripe rankings.
	heat []int64
}

// Metrics returns the cluster-level metrics registry (fan-out, degraded
// answers, quorum/timeout events; per-shard engine metrics live on each
// shard's own registry, see Engine(s).Metrics()).
func (e *Engines) Metrics() *obs.Registry { return e.reg }

// Tracer returns the cluster's span tracer (per-shard fan-out slices on the
// synthetic cluster timeline).
func (e *Engines) Tracer() *obs.Tracer { return e.tracer }

// MetricsSnapshot exports the cluster registry.
func (e *Engines) MetricsSnapshot() obs.Snapshot { return e.reg.Snapshot() }

// Tolerance configures the cluster's degraded-operation policy and its
// deterministic fault injection. The zero value waits for every shard and
// injects nothing — today's behavior, bit for bit.
type Tolerance struct {
	// ShardTimeout caps the wait for shard answers (0 = wait forever).
	// Shards that miss it are reported as ErrShardTimeout and the query
	// degrades to the shards that did answer. The shard engines advance
	// SIMULATED time while executing, so this bound is meaningful only for
	// real goroutine stalls — the wall-clock delays DelayRate injects — or
	// with a Timer injected below; it cannot observe simulated latencies.
	ShardTimeout time.Duration
	// Timer overrides the timeout clock (nil = time.NewTimer). Tests inject
	// a manual trigger so timeout classification is deterministic: answers
	// already delivered are always collected before a fired timer is
	// honored, so "who timed out" is a pure function of which shards had
	// answered when the injected timer fired.
	Timer func(d time.Duration) <-chan time.Time
	// Quorum answers as soon as this many shards have reported healthy
	// results (0 = all shards). Stragglers are reported as ErrShardSkipped.
	// A query that cannot reach quorum fails outright.
	Quorum int
	// FaultRate is each shard's injected whole-shard failure probability
	// per Queries call, drawn deterministically from FaultSeed.
	FaultRate float64
	// FaultSeed roots the injection stream: call c, shard s draws from
	// Fork("call<c>-shard<s>"), so the failure schedule is a pure function
	// of the seed and the call sequence.
	FaultSeed int64
	// DelayRate/Delay stall a shard's fan-out goroutine (wall clock) before
	// it executes, modeling a slow device; drawn from the same stream.
	DelayRate float64
	Delay     time.Duration
}

// SetTolerance installs the degraded-operation policy.
func (e *Engines) SetTolerance(t Tolerance) error {
	e.admin.Lock()
	defer e.admin.Unlock()
	if t.FaultRate < 0 || t.FaultRate > 1 || t.DelayRate < 0 || t.DelayRate > 1 {
		return fmt.Errorf("cluster: rate outside [0, 1] in %+v", t)
	}
	if t.Quorum < 0 || t.Quorum > len(e.groups) {
		return fmt.Errorf("cluster: quorum %d invalid for %d shards", t.Quorum, len(e.groups))
	}
	if t.ShardTimeout < 0 || t.Delay < 0 {
		return fmt.Errorf("cluster: negative duration in %+v", t)
	}
	e.tol = t
	if t.FaultRate > 0 || t.DelayRate > 0 {
		e.inj = fault.New(t.FaultSeed)
	} else {
		e.inj = nil
	}
	return nil
}

// Answer is one query's cluster-wide result.
type Answer struct {
	// TopK holds the merged results with FeatureID in global database
	// coordinates.
	TopK []topk.Entry
	// Makespan is the slowest contributing sub-query's simulated latency —
	// the map-reduce barrier before the final merge.
	Makespan sim.Duration
	// EnergyJ sums the contributing shards' modeled energy.
	EnergyJ float64
	// FeaturesScanned sums the contributing sub-queries' scanned features;
	// with the pruning tier active, FeaturesScanned + Prune.FeaturesSkipped
	// equals the routed feature total regardless of how the routing table
	// splits the space (conservation across the split boundary).
	FeaturesScanned int64
	// Prune sums the contributing shards' exact-pruning skip accounting
	// (all zeros when shards run with Options.Prune off).
	Prune core.PruneStats

	// Degraded reports that the answer covers only a subset of the shards
	// (failures, timeouts, or quorum-skipped stragglers).
	Degraded bool
	// FailedShards lists the non-contributing shard indices in shard order.
	FailedShards []int
	// ShardErrs joins the per-shard failures (errors.Join); nil when every
	// shard contributed.
	ShardErrs error
}

// NewEngines creates n single-replica DeepStore engines with identical
// options.
func NewEngines(n int, opts core.Options) (*Engines, error) {
	return NewReplicatedEngines(n, 1, opts)
}

// NewReplicatedEngines creates a shards×replicas cluster: every shard's
// slice of the database is held by `replicas` identical engines, and each
// query routes to one replica per shard (rotating across calls, failing
// over past replicas that draw injected faults). Replication multiplies
// simulated devices, not data: a degraded shard stays answerable as long as
// one of its replicas survives.
//
// Admin operations apply to every replica of a group or fail atomically:
// an op that fails on every replica leaves the serving state untouched, and
// a mixed outcome quarantines the replicas the op failed on (removing them
// from routing and failover rotation), so a half-updated replica can never
// serve a failover read.
func NewReplicatedEngines(shards, replicas int, opts core.Options) (*Engines, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: %d shards invalid", shards)
	}
	if replicas < 1 {
		return nil, fmt.Errorf("cluster: %d replicas invalid", replicas)
	}
	e := &Engines{opts: opts, reg: obs.NewRegistry(), tracer: obs.NewTracer(0)}
	e.tracer.CountDrops(e.reg.Counter("obs_tracer_dropped_spans"))
	for s := 0; s < shards; s++ {
		group := make([]*core.DeepStore, replicas)
		for r := range group {
			ds, err := core.New(opts)
			if err != nil {
				return nil, err
			}
			group[r] = ds
		}
		e.groups = append(e.groups, group)
	}
	e.models = make([]core.ModelID, shards)
	e.publishLocked()
	return e, nil
}

// Shards returns the number of shards (a live rebalance can grow it).
func (e *Engines) Shards() int { return len(e.state.Load().groups) }

// Replicas returns shard s's replica count (quarantine can shrink it).
func (e *Engines) Replicas(s int) int { return len(e.state.Load().groups[s]) }

// Engine exposes shard s's primary engine (for inspection and stats).
func (e *Engines) Engine(s int) *core.DeepStore { return e.state.Load().groups[s][0] }

// Replica exposes shard s's replica r (replica 0 is the primary).
func (e *Engines) Replica(s, r int) *core.DeepStore { return e.state.Load().groups[s][r] }

// WriteDB splits the features contiguously across the shards (balanced to
// within one feature) and writes each slice to every replica of its shard.
// The new routing table is published only after every write succeeded, so
// concurrent queries see either the previous generation or the new one in
// full — never a mix.
func (e *Engines) WriteDB(features [][]float32) error {
	e.admin.Lock()
	defer e.admin.Unlock()
	if e.rebalancing {
		return ErrRebalanceActive
	}
	n := int64(len(e.groups))
	if int64(len(features)) < n {
		return fmt.Errorf("cluster: %d features cannot shard across %d engines", len(features), n)
	}
	newRoutes := make([]route, 0, n)
	var off int64
	for s := int64(0); s < n; s++ {
		share := int64(len(features)) / n
		if s < int64(len(features))%n {
			share++
		}
		// Every replica of the shard receives the identical slice; fresh
		// identical engines assign identical IDs, so one DBID per shard
		// covers the whole replica group (verified, not assumed).
		var id ftl.DBID
		for r, ds := range e.groups[s] {
			got, err := ds.WriteDB(features[off : off+share])
			if err != nil {
				return err
			}
			if r == 0 {
				id = got
			} else if got != id {
				return fmt.Errorf("cluster: shard %d replica %d assigned DB %d, primary %d",
					s, r, got, id)
			}
		}
		newRoutes = append(newRoutes, route{shard: int(s), db: id, global: off, count: share})
		off += share
	}
	e.routes = newRoutes
	e.total = off
	e.obsMu.Lock()
	e.heat = make([]int64, off)
	e.obsMu.Unlock()
	e.publishLocked()
	return nil
}

// LoadModel registers the SCN with every replica of every shard; the model
// goes live for queries in one generation once every replica has it.
func (e *Engines) LoadModel(net *nn.Network) error {
	e.admin.Lock()
	defer e.admin.Unlock()
	if e.rebalancing {
		return ErrRebalanceActive
	}
	models := make([]core.ModelID, len(e.groups))
	for s, group := range e.groups {
		for r, ds := range group {
			id, err := ds.LoadModelNetwork(net)
			if err != nil {
				return err
			}
			if r == 0 {
				models[s] = id
			} else if id != models[s] {
				return fmt.Errorf("cluster: shard %d replica %d assigned model %d, primary %d",
					s, r, id, models[s])
			}
		}
	}
	e.models = models
	e.net = net
	e.publishLocked()
	return nil
}

// HistorySummary aggregates the query-history stores across every replica
// of every shard (engines with Options.History off contribute zeros) — the
// cluster-wide view of how much history has accumulated, how many query
// groups it mines into, and how much re-warming prefetch has done.
func (e *Engines) HistorySummary() core.HistoryStats {
	st := e.state.Load()
	var out core.HistoryStats
	for _, group := range st.groups {
		for _, ds := range group {
			hs := ds.HistoryStats()
			out.Add(hs)
		}
	}
	return out
}

// Heat returns the per-global-feature demand profile: how often each
// feature appeared in a merged top-K since the last WriteDB. PlanRebalance
// folds it into per-stripe rankings via internal/reorg.
func (e *Engines) Heat() []int64 {
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	return append([]int64(nil), e.heat...)
}

// Query runs one query across all shards and merges the answers.
func (e *Engines) Query(qfv []float32, k int) (Answer, error) {
	answers, err := e.Queries([][]float32{qfv}, k)
	if err != nil {
		return Answer{}, err
	}
	return answers[0], nil
}

// Queries runs a batch of queries across all shards: each shard receives
// the whole batch and executes it as one core.DeepStore.QueryMulti, so every
// shard pays ONE simulated flash/weight-streaming scan per routed range for
// the batch instead of one per query. Shards execute concurrently, and each
// query's per-route top-Ks are reduced with topk.Merge after remapping
// feature IDs into global coordinates. QueryMulti's equivalence guarantee
// holds range by range, so every Answer is identical to running the queries
// one at a time; what the batch changes is each shard's device timeline,
// which advances once per batch.
//
// Degraded operation (SetTolerance): shard errors no longer destroy the
// query. Every failure is collected, and as long as one shard — or the
// configured quorum — answers, the batch returns the healthy shards' merge
// with Degraded set and the failures joined in ShardErrs. Only a cluster
// with no healthy answer (or a missed quorum) returns an error.
//
// The call snapshots exactly one routing-table generation: the fan-out, the
// feature-ID remap, and the merge all use that snapshot, so a concurrent
// WriteDB/LoadModel/rebalance flip is either entirely before or entirely
// after this batch.
func (e *Engines) Queries(qfvs [][]float32, k int) ([]Answer, error) {
	st := e.state.Load()
	if len(st.routes) == 0 {
		return nil, fmt.Errorf("cluster: engines need WriteDB and LoadModel before queries")
	}
	if len(qfvs) == 0 {
		return nil, fmt.Errorf("cluster: empty batch")
	}
	call := e.calls.Add(1) - 1
	nshards := len(st.groups)
	// Build every shard's spec list up front: the fan-out goroutines only
	// read their slice, keeping spec construction off the scoring path.
	// A shard executes one range-limited sub-query per (owned route ×
	// query); spec j*len(qfvs)+i is route j's copy of query i.
	shardRoutes := make([][]route, nshards)
	for _, rt := range st.routes {
		shardRoutes[rt.shard] = append(shardRoutes[rt.shard], rt)
	}
	shardSpecs := make([][]core.QuerySpec, nshards)
	participants := 0
	for s, rts := range shardRoutes {
		if len(rts) == 0 {
			continue // a freshly added shard owns nothing yet
		}
		participants++
		specs := make([]core.QuerySpec, 0, len(rts)*len(qfvs))
		for _, rt := range rts {
			for _, q := range qfvs {
				specs = append(specs, core.QuerySpec{
					QFV: q, K: k, Model: rt.model, DB: rt.db,
					DBStart: rt.local, DBEnd: rt.local + rt.count,
				})
			}
		}
		shardSpecs[s] = specs
	}
	type shardOut struct {
		s       int
		results []*core.QueryResult
		err     error
	}
	// Buffered so stragglers skipped by quorum or timeout can still finish
	// and send without leaking a goroutine.
	ch := make(chan shardOut, participants)
	// attempt is one routed replica try: which replica, and the fault/delay
	// it drew.
	type attempt struct {
		rep      int
		injected error
		delay    time.Duration
	}
	for s := 0; s < nshards; s++ {
		if shardSpecs[s] == nil {
			continue
		}
		// Fault draws happen on the caller, in shard order then attempt
		// order, so the routing and failure schedule is deterministic
		// regardless of goroutine interleaving. Routing rotates the first
		// replica with the call counter; each faulted attempt fails over to
		// the next replica in rotation order. Replica 0 keeps the legacy
		// "call<c>-shard<s>" stream so single-replica clusters are
		// bit-identical to the pre-replication schedule.
		nrep := len(st.groups[s])
		rot := 0
		if nrep > 1 {
			rot = int(call % uint64(nrep))
		}
		plan := make([]attempt, 0, nrep)
		for a := 0; a < nrep; a++ {
			at := attempt{rep: (rot + a) % nrep}
			if e.inj != nil {
				var inj *fault.Injector
				if at.rep == 0 {
					inj = e.inj.Forkf("call%d-shard%d", call, s)
				} else {
					inj = e.inj.Forkf("call%d-shard%d-rep%d", call, s, at.rep)
				}
				if inj.Hit(e.tol.FaultRate) {
					at.injected = fmt.Errorf("cluster: shard %d replica %d: %w", s, at.rep, fault.ErrInjected)
					e.reg.Counter("cluster_injected_faults").Inc()
				}
				if inj.Hit(e.tol.DelayRate) {
					at.delay = e.tol.Delay
					if at.delay <= 0 {
						at.delay = time.Millisecond
					}
					e.reg.Counter("cluster_injected_delays").Inc()
				}
			}
			plan = append(plan, at)
			if at.injected == nil {
				// Healthy replica reached: later replicas stay undrawn, so
				// the draw count (and thus the schedule) is itself a pure
				// function of the seed and call sequence.
				break
			}
		}
		go func(s int, plan []attempt) {
			var errs []error
			for i, at := range plan {
				if at.delay > 0 {
					time.Sleep(at.delay)
				}
				if at.injected != nil {
					errs = append(errs, at.injected)
					if i < len(plan)-1 {
						e.reg.Counter("cluster_failovers").Inc()
					}
					continue
				}
				eng := st.groups[s][at.rep]
				ids, err := eng.QueryMulti(shardSpecs[s])
				if err != nil {
					// A real engine error is systematic (the same spec fails
					// on every replica): no failover, fail the shard.
					ch <- shardOut{s: s, err: fmt.Errorf("cluster: shard %d: %w", s, err)}
					return
				}
				results := make([]*core.QueryResult, len(ids))
				for i, id := range ids {
					res, err := eng.GetResults(id)
					if err != nil {
						ch <- shardOut{s: s, err: fmt.Errorf("cluster: shard %d: %w", s, err)}
						return
					}
					results[i] = res
				}
				ch <- shardOut{s: s, results: results}
				return
			}
			ch <- shardOut{s: s, err: errors.Join(errs...)}
		}(s, plan)
	}

	// Collect until every shard reports, the quorum of healthy answers is
	// reached, or the shard timeout expires.
	outs := make([]*shardOut, nshards)
	quorum := participants
	if e.tol.Quorum > 0 && e.tol.Quorum < quorum {
		quorum = e.tol.Quorum
	}
	var timeout <-chan time.Time
	if e.tol.ShardTimeout > 0 {
		if e.tol.Timer != nil {
			timeout = e.tol.Timer(e.tol.ShardTimeout)
		} else {
			timer := time.NewTimer(e.tol.ShardTimeout)
			defer timer.Stop()
			timeout = timer.C
		}
	}
	reported, healthy := 0, 0
	timedOut := false
collect:
	for reported < participants && healthy < quorum {
		// Answers already delivered win over a concurrently (or pre-) fired
		// timeout: a shard that has answered is never classified as timed
		// out, which keeps timeout tests with injected timers deterministic.
		select {
		case o := <-ch:
			outs[o.s] = &o
			reported++
			if o.err == nil {
				healthy++
			}
			continue
		default:
		}
		select {
		case o := <-ch:
			outs[o.s] = &o
			reported++
			if o.err == nil {
				healthy++
			}
		case <-timeout:
			timedOut = true
			break collect
		}
	}
	// Scoop shards that finished concurrently with the quorum/timeout
	// decision; their answers are free.
drain:
	for reported < participants {
		select {
		case o := <-ch:
			outs[o.s] = &o
			reported++
			if o.err == nil {
				healthy++
			}
		default:
			break drain
		}
	}

	var failed []int
	var shardErrs []error
	for s := 0; s < nshards; s++ {
		if shardSpecs[s] == nil {
			continue
		}
		switch {
		case outs[s] == nil && timedOut:
			failed = append(failed, s)
			shardErrs = append(shardErrs, fmt.Errorf("shard %d: %w after %v", s, ErrShardTimeout, e.tol.ShardTimeout))
			e.reg.Counter("cluster_shard_timeouts").Inc()
		case outs[s] == nil:
			failed = append(failed, s)
			shardErrs = append(shardErrs, fmt.Errorf("shard %d: %w", s, ErrShardSkipped))
			e.reg.Counter("cluster_shard_skipped").Inc()
		case outs[s].err != nil:
			failed = append(failed, s)
			shardErrs = append(shardErrs, outs[s].err)
			e.reg.Counter("cluster_shard_errors").Inc()
		}
	}
	joined := errors.Join(shardErrs...)
	if healthy == 0 {
		return nil, fmt.Errorf("cluster: no healthy shard answered: %w", joined)
	}
	if e.tol.Quorum > 0 && healthy < e.tol.Quorum {
		return nil, fmt.Errorf("cluster: quorum not met (%d healthy of %d required): %w",
			healthy, e.tol.Quorum, joined)
	}

	e.reg.Counter("cluster_batches").Inc()
	e.reg.Counter("cluster_queries").Add(int64(len(qfvs)))
	if timedOut {
		e.reg.Counter("cluster_timeouts").Inc()
	}
	if len(failed) > 0 {
		e.reg.Counter("cluster_degraded_answers").Add(int64(len(qfvs)))
	}

	answers := make([]Answer, len(qfvs))
	for i := range qfvs {
		var queues []*topk.Queue
		for s := 0; s < nshards; s++ {
			o := outs[s]
			if o == nil || o.err != nil {
				continue
			}
			for j, rt := range shardRoutes[s] {
				res := o.results[j*len(qfvs)+i]
				q := topk.New(k)
				for _, entry := range res.TopK {
					entry.FeatureID += rt.global - rt.local
					q.Offer(entry)
				}
				queues = append(queues, q)
				if res.Latency > answers[i].Makespan {
					answers[i].Makespan = res.Latency
				}
				answers[i].EnergyJ += res.Energy.Total()
				answers[i].FeaturesScanned += res.FeaturesScanned
				answers[i].Prune.Add(res.Prune)
				if obs.SumStages(res.Stages) != res.Latency {
					// The per-query invariant (stage durations sum exactly
					// to the latency) must survive range splits; a breach
					// here is a core bug, surfaced as a counter the
					// migration-race tests pin to zero.
					e.reg.Counter("cluster_stage_sum_mismatch").Inc()
				}
			}
		}
		answers[i].TopK = topk.Merge(k, queues...).Results()
		e.reg.Histogram("cluster_query_makespan_ms", obs.LatencyBucketsMs()).Observe(answers[i].Makespan.Seconds() * 1e3)
		if len(failed) > 0 {
			answers[i].Degraded = true
			answers[i].FailedShards = failed
			answers[i].ShardErrs = joined
		}
	}

	// Per-shard fan-out spans on the synthetic cluster timeline: each
	// healthy shard's simulated busy time for this batch starts at the
	// cluster clock, which then advances by the batch makespan (the slowest
	// shard's total). The merged top-Ks also feed the heat profile here.
	e.obsMu.Lock()
	batchStart := e.obsClock
	var batchMakespan sim.Duration
	for s := 0; s < nshards; s++ {
		o := outs[s]
		if o == nil || o.err != nil {
			continue
		}
		var total sim.Duration
		for _, r := range o.results {
			total += r.Latency
		}
		if total > batchMakespan {
			batchMakespan = total
		}
		e.tracer.Add(obs.Span{
			Name: obs.SpanShard, Cat: "cluster", TID: int64(s),
			Start: batchStart, Dur: total,
			Args: map[string]string{"queries": strconv.Itoa(len(o.results))},
		})
		e.reg.Histogram("cluster_shard_batch_ms", obs.LatencyBucketsMs()).Observe(total.Seconds() * 1e3)
	}
	e.obsClock += sim.Time(batchMakespan)
	for i := range answers {
		for _, entry := range answers[i].TopK {
			if entry.FeatureID >= 0 && entry.FeatureID < int64(len(e.heat)) {
				e.heat[entry.FeatureID]++
			}
		}
	}
	e.obsMu.Unlock()

	return answers, nil
}
