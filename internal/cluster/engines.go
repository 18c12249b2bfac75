package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topk"
)

// ErrRebalanceActive rejects admin operations (WriteDB, LoadModel, AppendDB,
// ReorgShard) while an online rebalance is mid-move; queries are unaffected.
var ErrRebalanceActive = errors.New("cluster: rebalance in progress")

// Engines is the functional counterpart of ShardedScan: a Fig. 10b
// scale-out deployment of full DeepStore engines, one per simulated SSD,
// each holding a slice of one materialized feature database. A query fans
// out along the current routing-table generation (see routing.go) — every
// route contributes one range-limited sub-query — and the per-route top-K
// queues reduce into a global answer.
type Engines struct {
	// opts is the engine configuration every shard (including shards added
	// by an online rebalance) is created with.
	opts core.Options

	// admin serializes admin operations and guards the construction state
	// below. Queries never take it: they read the published state pointer.
	admin sync.Mutex
	// engines[s] is shard s's engine.
	engines []*core.DeepStore
	// models[s] is shard s's registered model (0 until LoadModel).
	models []core.ModelID
	// net is the last loaded network, reloaded onto shards an online
	// rebalance adds.
	net *nn.Network
	// routes is the admin-side routing table (models resolved at publish).
	routes []route
	total  int64
	// tol is the admin-side fault policy, published with the routes.
	tol Tolerance
	// rebalancing interlocks admin ops while a Rebalancer is mid-move.
	rebalancing bool

	// state is the published generation queries snapshot (routing.go).
	state atomic.Pointer[clusterState]

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

// Metrics returns the cluster-level metrics registry (fan-out, injected
// faults, degraded answers; per-shard engine metrics live on each
// shard's own registry, see Engine(s).Metrics()).
func (e *Engines) Metrics() *obs.Registry { return e.reg }

// Tracer returns the cluster's span tracer (per-shard fan-out slices on the
// synthetic cluster timeline).
func (e *Engines) Tracer() *obs.Tracer { return e.tracer }

// MetricsSnapshot exports the cluster registry.
func (e *Engines) MetricsSnapshot() obs.Snapshot { return e.reg.Snapshot() }

// Tolerance configures the cluster's deterministic fault injection. The
// zero value injects nothing. Every query waits for every shard; a faulted
// shard drops out of the merge (see Queries).
type Tolerance struct {
	// FaultRate is each shard's injected whole-shard failure probability
	// per Queries call, drawn deterministically from FaultSeed.
	FaultRate float64
	// FaultSeed roots the injection stream: call c, shard s draws from
	// Fork("call<c>-shard<s>"), so the failure schedule is a pure function
	// of the seed and the call sequence.
	FaultSeed int64
}

// SetTolerance installs the fault policy. It publishes a new generation, so
// a query runs wholly under the policy it snapshotted.
func (e *Engines) SetTolerance(t Tolerance) error {
	e.admin.Lock()
	defer e.admin.Unlock()
	if t.FaultRate < 0 || t.FaultRate > 1 {
		return fmt.Errorf("cluster: fault rate %v outside [0, 1]", t.FaultRate)
	}
	e.tol = t
	e.publishLocked()
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

	// Degraded reports that the answer covers only a subset of the shards.
	Degraded bool
	// FailedShards lists the non-contributing shard indices in shard order.
	FailedShards []int
	// ShardErrs joins the per-shard failures (errors.Join); nil when every
	// shard contributed.
	ShardErrs error
}

// NewEngines creates n DeepStore engines, one per shard, with identical
// options.
func NewEngines(n int, opts core.Options) (*Engines, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: %d shards invalid", n)
	}
	e := &Engines{opts: opts, reg: obs.NewRegistry(), tracer: obs.NewTracer(0)}
	e.tracer.CountDrops(e.reg.Counter("obs_tracer_dropped_spans"))
	for s := 0; s < n; s++ {
		ds, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		e.engines = append(e.engines, ds)
	}
	e.models = make([]core.ModelID, n)
	e.publishLocked()
	return e, nil
}

// Shards returns the number of shards (a live rebalance can grow it).
func (e *Engines) Shards() int { return len(e.state.Load().engines) }

// Engine exposes shard s's engine (for inspection and stats).
func (e *Engines) Engine(s int) *core.DeepStore { return e.state.Load().engines[s] }

// WriteDB splits the features contiguously across the shards (balanced to
// within one feature) and writes each slice to its shard. The new routing
// table is published only after every write succeeded, so concurrent
// queries see either the previous generation or the new one in full —
// never a mix.
func (e *Engines) WriteDB(features [][]float32) error {
	e.admin.Lock()
	defer e.admin.Unlock()
	if e.rebalancing {
		return ErrRebalanceActive
	}
	n := int64(len(e.engines))
	if int64(len(features)) < n {
		return fmt.Errorf("cluster: %d features cannot shard across %d engines", len(features), n)
	}
	newRoutes := make([]route, 0, n)
	var off int64
	for s, ds := range e.engines {
		share := int64(len(features)) / n
		if int64(s) < int64(len(features))%n {
			share++
		}
		id, err := ds.WriteDB(features[off : off+share])
		if err != nil {
			return err
		}
		newRoutes = append(newRoutes, route{shard: s, db: id, global: off, count: share})
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

// LoadModel registers the SCN with every shard; the model goes live for
// queries in one generation once every shard has it.
func (e *Engines) LoadModel(net *nn.Network) error {
	e.admin.Lock()
	defer e.admin.Unlock()
	if e.rebalancing {
		return ErrRebalanceActive
	}
	models := make([]core.ModelID, len(e.engines))
	for s, ds := range e.engines {
		id, err := ds.LoadModelNetwork(net)
		if err != nil {
			return err
		}
		models[s] = id
	}
	e.models = models
	e.net = net
	e.publishLocked()
	return nil
}

// HistorySummary aggregates the query-history stores across every shard
// (engines with Options.History off contribute zeros) — the cluster-wide
// view of how much history has accumulated, how many query groups it mines
// into, and how much re-warming prefetch has done.
func (e *Engines) HistorySummary() core.HistoryStats {
	var out core.HistoryStats
	for _, ds := range e.state.Load().engines {
		out.Add(ds.HistoryStats())
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
// the whole batch and executes it as one core.DeepStore.Do, so every
// shard pays ONE simulated flash/weight-streaming scan per routed range for
// the batch instead of one per query. Shards execute concurrently, and each
// query's per-route top-Ks are reduced with topk.Merge after remapping
// feature IDs into global coordinates. The shared sweep's equivalence
// guarantee holds range by range, so every Answer is identical to running
// the queries one at a time; what the batch changes is each shard's device
// timeline, which advances once per batch. A shard that refuses any of its
// specs fails as a whole.
//
// Degraded operation: the batch waits for every shard and collects every
// failure, injected (SetTolerance) or real. As long as one shard answers,
// the batch returns the healthy shards' merge with Degraded set and the
// failures joined in ShardErrs. Only a cluster with no healthy answer
// returns an error.
//
// The call snapshots exactly one generation: the fan-out, the fault policy,
// the feature-ID remap, and the merge all use that snapshot, so a
// concurrent WriteDB/LoadModel/SetTolerance/rebalance flip is either
// entirely before or entirely after this batch.
func (e *Engines) Queries(qfvs [][]float32, k int) ([]Answer, error) {
	st := e.state.Load()
	if len(st.routes) == 0 {
		return nil, fmt.Errorf("cluster: engines need WriteDB and LoadModel before queries")
	}
	if len(qfvs) == 0 {
		return nil, fmt.Errorf("cluster: empty batch")
	}
	call := e.calls.Add(1) - 1
	nshards := len(st.engines)
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
		results []*core.QueryResult
		err     error
	}
	var root *fault.Injector
	if st.tol.FaultRate > 0 {
		root = fault.New(st.tol.FaultSeed)
	}
	outs := make([]shardOut, nshards)
	var wg sync.WaitGroup
	for s, specs := range shardSpecs {
		if specs == nil {
			continue
		}
		// Fault draws happen on the caller, in shard order, so the failure
		// schedule does not depend on goroutine interleaving.
		if root != nil && root.Forkf("call%d-shard%d", call, s).Hit(st.tol.FaultRate) {
			e.reg.Counter("cluster_injected_faults").Inc()
			outs[s].err = fmt.Errorf("cluster: shard %d: %w", s, fault.ErrInjected)
			continue
		}
		wg.Add(1)
		go func(s int, eng *core.DeepStore) {
			defer wg.Done()
			results, err := eng.Do(specs)
			for _, r := range results {
				err = cmp.Or(err, r.Err)
			}
			if err != nil {
				outs[s].err = fmt.Errorf("cluster: shard %d: %w", s, err)
				return
			}
			outs[s].results = results
		}(s, st.engines[s])
	}
	wg.Wait()

	var failed []int
	var shardErrs []error
	for s, o := range outs {
		if o.err != nil {
			failed = append(failed, s)
			shardErrs = append(shardErrs, o.err)
			e.reg.Counter("cluster_shard_errors").Inc()
		}
	}
	joined := errors.Join(shardErrs...)
	if len(failed) == participants {
		return nil, fmt.Errorf("cluster: no healthy shard answered: %w", joined)
	}

	e.reg.Counter("cluster_batches").Inc()
	e.reg.Counter("cluster_queries").Add(int64(len(qfvs)))
	if len(failed) > 0 {
		e.reg.Counter("cluster_degraded_answers").Add(int64(len(qfvs)))
	}

	answers := make([]Answer, len(qfvs))
	for i := range qfvs {
		var queues []*topk.Queue
		for s, o := range outs {
			if o.results == nil {
				continue // failed, or owns no route
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
	for s, o := range outs {
		if o.results == nil {
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
