package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ftl"
)

// The split-aware routing table. A cluster generation is an immutable
// snapshot of the whole serving topology: the shard engines, an ordered list
// of routes partitioning the global feature space [0, total), and the fault
// policy. Admin operations (WriteDB, LoadModel, AppendDB, ReorgShard,
// SetTolerance, rebalance flips)
// build the next generation under the admin mutex and publish it atomically;
// a query snapshots exactly one generation for its entire fan-out/merge, so
// it can never see shard i updated and shard i+1 stale, and during a live
// move every feature index has exactly one authoritative owner.

// route maps a contiguous global feature range to the shard database slice
// that owns it: global feature g ∈ [global, global+count) lives at local
// index g−global+local of database db on shard.
type route struct {
	shard  int
	db     ftl.DBID
	model  core.ModelID
	global int64
	local  int64
	count  int64
}

// clusterState is one published generation. All fields are immutable after
// publication (slices are fresh copies); routes is nil until both WriteDB
// and LoadModel have completed, and is always sorted by global, covering
// [0, total) without gap or overlap.
type clusterState struct {
	gen     uint64
	engines []*core.DeepStore
	routes  []route
	total   int64
	tol     Tolerance
}

// RouteInfo is the exported description of one routing-table entry
// (inspection, tests, and the rebalance bench).
type RouteInfo struct {
	// Shard owns the range; DB is the shard-local database holding it.
	Shard int
	DB    ftl.DBID
	// Global is the first global feature index of the range, Local its
	// index inside DB, Count the range length.
	Global, Local, Count int64
}

// Gen returns the current routing-table generation. Every published change
// — data, model, topology, fault policy, or a rebalance flip — bumps it by
// one.
func (e *Engines) Gen() uint64 { return e.state.Load().gen }

// Routes returns the current routing table in global order (empty until
// WriteDB and LoadModel have both completed).
func (e *Engines) Routes() []RouteInfo {
	st := e.state.Load()
	out := make([]RouteInfo, len(st.routes))
	for i, r := range st.routes {
		out[i] = RouteInfo{Shard: r.shard, DB: r.db, Global: r.global, Local: r.local, Count: r.count}
	}
	return out
}

// Features returns the global feature count of the routed database.
func (e *Engines) Features() int64 { return e.state.Load().total }

// publishLocked builds the next generation from the admin-side state and
// publishes it atomically. Routes go live only once every routed shard has a
// model; until then queries keep failing with the need-WriteDB/LoadModel
// error rather than seeing a half-initialized table. Callers hold e.admin.
func (e *Engines) publishLocked() {
	prev := e.state.Load()
	st := &clusterState{total: e.total, tol: e.tol, engines: append([]*core.DeepStore(nil), e.engines...)}
	if prev != nil {
		st.gen = prev.gen + 1
	}
	ready := len(e.routes) > 0
	for _, rt := range e.routes {
		if e.models[rt.shard] == 0 {
			ready = false
			break
		}
	}
	if ready {
		st.routes = make([]route, len(e.routes))
		for i, rt := range e.routes {
			rt.model = e.models[rt.shard]
			st.routes[i] = rt
		}
	}
	e.state.Store(st)
}

// splitForMove carves [globalStart, globalStart+n) out of its containing
// route and hands it to moved (the destination's fresh database, local 0).
// The input slice is not modified; the result keeps global order, so the
// published table stays a partition — the atomicity of a per-range flip.
func splitForMove(routes []route, globalStart, n int64, moved route) ([]route, error) {
	idx := -1
	for i, rt := range routes {
		if rt.global <= globalStart && globalStart+n <= rt.global+rt.count {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("cluster: range [%d, %d) does not lie within one route",
			globalStart, globalStart+n)
	}
	rt := routes[idx]
	out := make([]route, 0, len(routes)+2)
	out = append(out, routes[:idx]...)
	if pre := globalStart - rt.global; pre > 0 {
		out = append(out, route{shard: rt.shard, db: rt.db, global: rt.global, local: rt.local, count: pre})
	}
	moved.global = globalStart
	moved.count = n
	out = append(out, moved)
	if post := rt.global + rt.count - (globalStart + n); post > 0 {
		out = append(out, route{
			shard: rt.shard, db: rt.db,
			global: globalStart + n,
			local:  rt.local + (globalStart - rt.global) + n,
			count:  post,
		})
	}
	out = append(out, routes[idx+1:]...)
	return out, nil
}
