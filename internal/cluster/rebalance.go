package cluster

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/sim"
)

// Online shard split/rebalance. A Rebalancer migrates a contiguous global
// feature range from a hot shard to a destination shard (existing or newly
// added) without stopping reads: the copy runs chunk by chunk through the
// device model (migration reads charged on the source, programs on the
// destination, prune envelopes and int8 tables rebuilt by the destination's
// WriteDB), and after each chunk the routing table flips that sub-range to
// the destination in one published generation. A query that snapshotted
// gen g sees the pre-flip owner for the whole batch; a query that
// snapshots g+1 sees the post-flip owner — every feature index has exactly
// one authoritative owner at every generation, so merged answers stay
// bit-identical to an unsplit cluster throughout the move.

// AddShard as MoveSpec.Dest grows the cluster by one shard (same options as
// the others) and migrates into it.
const AddShard = -1

// MoveSpec describes one contiguous range migration.
type MoveSpec struct {
	// Source is the shard whose route currently owns the range.
	Source int
	// Dest is the destination shard index, or AddShard to grow the cluster.
	Dest int
	// Start is the first global feature index to move; Count the length.
	// [Start, Start+Count) must lie within a single current route.
	Start, Count int64
	// ChunkFeatures bounds the features copied per Step call (0 = the whole
	// range in one chunk). Smaller chunks flip routing more often, trading
	// copy efficiency for a finer-grained cutover.
	ChunkFeatures int64
}

// MoveReport summarizes a completed (or aborted) migration.
type MoveReport struct {
	// Gen is the routing-table generation after the last flip.
	Gen uint64
	// Moved counts features flipped to the destination; Chunks the Step
	// calls that moved them.
	Moved  int64
	Chunks int
	// Dest is the resolved destination shard (useful with AddShard).
	Dest int
	// SrcRead is simulated device time the source shard spent on migration
	// reads; DstWrite the destination shard's program time.
	SrcRead, DstWrite sim.Duration
}

// Rebalancer drives one MoveSpec chunk by chunk. Step is not safe for
// concurrent use with itself, but queries may run concurrently with every
// phase; admin ops (WriteDB, LoadModel, AppendDB, ReorgShard, another
// rebalance) are rejected with ErrRebalanceActive until Close.
type Rebalancer struct {
	e    *Engines
	spec MoveSpec
	// src snapshots the containing route at construction; the interlock
	// (ErrRebalanceActive + core ErrMigrating) guarantees it stays valid.
	src       route
	dest      int
	destAdded bool

	moved    int64
	chunks   int
	srcRead  sim.Duration
	dstWrite sim.Duration
	done     bool
	aborted  bool
}

// NewRebalancer validates the spec, resolves (or creates) the destination
// shard, and interlocks the source database against mutating admin ops.
// The routing table is not touched yet — queries are unaffected until the
// first Step flips a chunk.
func NewRebalancer(e *Engines, spec MoveSpec) (*Rebalancer, error) {
	e.admin.Lock()
	defer e.admin.Unlock()
	if e.rebalancing {
		return nil, ErrRebalanceActive
	}
	if len(e.routes) == 0 {
		return nil, fmt.Errorf("cluster: rebalance before WriteDB")
	}
	if spec.Count < 1 {
		return nil, fmt.Errorf("cluster: rebalance of %d features", spec.Count)
	}
	if spec.ChunkFeatures < 0 {
		return nil, fmt.Errorf("cluster: negative chunk size %d", spec.ChunkFeatures)
	}
	var src *route
	for i := range e.routes {
		rt := &e.routes[i]
		if rt.global <= spec.Start && spec.Start+spec.Count <= rt.global+rt.count {
			src = rt
			break
		}
	}
	if src == nil {
		return nil, fmt.Errorf("cluster: range [%d, %d) does not lie within one route",
			spec.Start, spec.Start+spec.Count)
	}
	if src.shard != spec.Source {
		return nil, fmt.Errorf("cluster: range [%d, %d) is owned by shard %d, not %d",
			spec.Start, spec.Start+spec.Count, src.shard, spec.Source)
	}
	dest := spec.Dest
	destAdded := false
	switch {
	case dest == AddShard:
		if e.net == nil {
			return nil, fmt.Errorf("cluster: cannot add a shard before LoadModel")
		}
		ds, err := core.New(e.opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: adding shard: %w", err)
		}
		model, err := ds.LoadModelNetwork(e.net)
		if err != nil {
			return nil, fmt.Errorf("cluster: adding shard: %w", err)
		}
		e.engines = append(e.engines, ds)
		e.models = append(e.models, model)
		dest = len(e.engines) - 1
		destAdded = true
	case dest >= 0 && dest < len(e.engines):
		if dest == spec.Source {
			return nil, fmt.Errorf("cluster: destination shard %d is the source", dest)
		}
		if e.models[dest] == 0 {
			return nil, fmt.Errorf("cluster: destination shard %d has no model", dest)
		}
	default:
		return nil, fmt.Errorf("cluster: destination shard %d out of range", dest)
	}
	// Interlock the source database: a concurrent AppendDB/ReorgDB/DeleteDB
	// would invalidate the snapshot below.
	if err := e.engines[src.shard].BeginMigration(src.db); err != nil {
		if destAdded {
			e.engines = e.engines[:len(e.engines)-1]
			e.models = e.models[:len(e.models)-1]
		}
		return nil, fmt.Errorf("cluster: interlocking source shard %d: %w", src.shard, err)
	}
	e.rebalancing = true
	if destAdded {
		// Publish the grown topology (the new shard owns nothing yet, so
		// queries skip it; they just see Shards() grow).
		e.publishLocked()
	}
	return &Rebalancer{e: e, spec: spec, src: *src, dest: dest, destAdded: destAdded}, nil
}

// Step migrates the next chunk: a device-time-charged range read on the
// source shard, a WriteDB on the destination shard (programs charged,
// bound/quant tables built by the destination engine), and one atomic
// routing flip. Returns done=true once the whole range has moved (the
// interlock is then already released). On error nothing was flipped —
// queries still route to the source — and the caller should Abort.
func (rb *Rebalancer) Step() (done bool, err error) {
	if rb.done || rb.aborted {
		return rb.done, fmt.Errorf("cluster: rebalancer is finished")
	}
	e := rb.e
	chunk := rb.spec.Count - rb.moved
	if rb.spec.ChunkFeatures > 0 && chunk > rb.spec.ChunkFeatures {
		chunk = rb.spec.ChunkFeatures
	}
	globalStart := rb.spec.Start + rb.moved
	localStart := rb.src.local + (globalStart - rb.src.global)

	// Read the chunk off the source, charged as migration traffic on its
	// simulated device.
	st := e.state.Load()
	src := st.engines[rb.src.shard]
	t0 := src.Now()
	vecs, err := src.ReadRangeForMigration(rb.src.db, localStart, chunk)
	if err != nil {
		return false, fmt.Errorf("cluster: migration read: %w", err)
	}
	rb.srcRead += sim.Duration(src.Now() - t0)

	// Write the chunk as a fresh database on the destination. WriteDB
	// charges the programs and rebuilds the prune envelope and int8 tables
	// for the chunk, so the destination serves it with the same machinery as
	// any other database.
	dst := st.engines[rb.dest]
	t0 = dst.Now()
	destID, err := dst.WriteDB(vecs)
	if err != nil {
		return false, fmt.Errorf("cluster: migration write to shard %d: %w", rb.dest, err)
	}
	rb.dstWrite += sim.Duration(dst.Now() - t0)

	// Flip the sub-range to the destination in one published generation.
	e.admin.Lock()
	next, err := splitForMove(e.routes, globalStart, chunk, route{shard: rb.dest, db: destID, local: 0})
	if err != nil {
		e.admin.Unlock()
		return false, err
	}
	e.routes = next
	e.publishLocked()
	gen := e.state.Load().gen
	e.admin.Unlock()

	rb.moved += chunk
	rb.chunks++
	e.reg.Counter("cluster_migrate_chunks").Inc()
	e.reg.Counter("cluster_migrate_features").Add(chunk)
	e.obsMu.Lock()
	e.tracer.Add(obs.Span{
		Name: obs.SpanMigrate, Cat: "cluster", TID: int64(rb.dest),
		Start: e.obsClock, Dur: rb.srcRead + rb.dstWrite,
		Args: map[string]string{
			"features": fmt.Sprintf("%d", chunk),
			"gen":      fmt.Sprintf("%d", gen),
		},
	})
	e.obsMu.Unlock()

	if rb.moved == rb.spec.Count {
		rb.finish()
		return true, nil
	}
	return false, nil
}

// finish releases the interlock after the last flip.
func (rb *Rebalancer) finish() {
	e := rb.e
	e.admin.Lock()
	defer e.admin.Unlock()
	e.engines[rb.src.shard].EndMigration(rb.src.db)
	e.rebalancing = false
	rb.done = true
}

// Abort stops the migration, releasing the interlock. Chunks already
// flipped stay with the destination (they are served correctly there;
// flipping back would re-copy for nothing); the unmoved remainder stays
// with the source. A destination shard added by AddShard that received
// nothing is removed again.
func (rb *Rebalancer) Abort() {
	if rb.done || rb.aborted {
		return
	}
	e := rb.e
	e.admin.Lock()
	defer e.admin.Unlock()
	e.engines[rb.src.shard].EndMigration(rb.src.db)
	if rb.destAdded && rb.moved == 0 && rb.dest == len(e.engines)-1 {
		e.engines = e.engines[:len(e.engines)-1]
		e.models = e.models[:len(e.models)-1]
	}
	e.rebalancing = false
	rb.aborted = true
	e.publishLocked()
}

// Report summarizes the migration so far.
func (rb *Rebalancer) Report() MoveReport {
	return MoveReport{
		Gen:      rb.e.Gen(),
		Moved:    rb.moved,
		Chunks:   rb.chunks,
		Dest:     rb.dest,
		SrcRead:  rb.srcRead,
		DstWrite: rb.dstWrite,
	}
}

// Rebalance runs a whole MoveSpec synchronously: construct, Step to
// completion, report. Queries may run concurrently on other goroutines.
func (e *Engines) Rebalance(spec MoveSpec) (MoveReport, error) {
	rb, err := NewRebalancer(e, spec)
	if err != nil {
		return MoveReport{}, err
	}
	for {
		done, err := rb.Step()
		if err != nil {
			rb.Abort()
			return rb.Report(), err
		}
		if done {
			return rb.Report(), nil
		}
	}
}

// PlanRebalance folds the cluster's per-feature heat profile (Heat) into
// per-stripe rankings via internal/reorg and proposes moving the hottest
// windowStripes-stripe window of the hottest route to a new shard. Returns
// an error when no demand has accumulated (nothing to plan from).
func (e *Engines) PlanRebalance(stripeFeatures int64, windowStripes int) (MoveSpec, error) {
	if stripeFeatures < 1 || windowStripes < 1 {
		return MoveSpec{}, fmt.Errorf("cluster: plan with stripe %d × window %d", stripeFeatures, windowStripes)
	}
	heat := e.Heat()
	st := e.state.Load()
	if len(st.routes) == 0 {
		return MoveSpec{}, fmt.Errorf("cluster: plan before WriteDB")
	}
	best := MoveSpec{}
	bestSum := -1.0
	for _, rt := range st.routes {
		if rt.global+rt.count > int64(len(heat)) {
			return MoveSpec{}, fmt.Errorf("cluster: heat profile covers %d features, routes %d", len(heat), rt.global+rt.count)
		}
		stripes, err := reorg.StripeHeat(heat[rt.global:rt.global+rt.count], int(stripeFeatures))
		if err != nil {
			if errors.Is(err, reorg.ErrNoVectors) {
				continue
			}
			return MoveSpec{}, err
		}
		w := windowStripes
		if w > len(stripes) {
			w = len(stripes)
		}
		start, err := reorg.HottestWindow(stripes, w)
		if err != nil {
			return MoveSpec{}, err
		}
		sum := 0.0
		for _, h := range stripes[start : start+w] {
			sum += h
		}
		if sum > bestSum {
			gStart := rt.global + int64(start)*stripeFeatures
			count := int64(w) * stripeFeatures
			if gStart+count > rt.global+rt.count {
				count = rt.global + rt.count - gStart
			}
			best = MoveSpec{Source: rt.shard, Dest: AddShard, Start: gStart, Count: count, ChunkFeatures: stripeFeatures}
			bestSum = sum
		}
	}
	if bestSum <= 0 {
		return MoveSpec{}, fmt.Errorf("cluster: no accumulated demand to plan from")
	}
	return best, nil
}
