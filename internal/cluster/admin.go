package cluster

import "fmt"

// AppendDB appends features to the tail of the global feature space: they
// land on the shard owning the last route, and the routing table extends the
// tail route by len(features) in one published generation — concurrent
// queries see the database grow atomically. Core's admin ops validate before
// they mutate, so a failed append returns its error with nothing changed.
func (e *Engines) AppendDB(features [][]float32) error {
	e.admin.Lock()
	defer e.admin.Unlock()
	if e.rebalancing {
		return ErrRebalanceActive
	}
	if len(e.routes) == 0 {
		return fmt.Errorf("cluster: appendDB before WriteDB")
	}
	if len(features) == 0 {
		return fmt.Errorf("cluster: appendDB with no features")
	}
	tail := e.routes[len(e.routes)-1]
	// The tail route must still end at its database's physical tail:
	// core.AppendDB places new features at the database's end, and the
	// route extension below assumes those indices are exactly
	// [tail.local+tail.count, ...). A rebalance that moved the tail range
	// elsewhere re-points the tail route at a fresh destination database
	// whose end is the route's end, so this holds across moves; verify
	// rather than assume.
	ds := e.engines[tail.shard]
	n, err := ds.DBFeatures(tail.db)
	if err != nil {
		return err
	}
	if tail.local+tail.count != n {
		return fmt.Errorf("cluster: tail route ends at local %d of database with %d features; appendDB needs the route to own the database tail",
			tail.local+tail.count, n)
	}
	if err := ds.AppendDB(tail.db, features); err != nil {
		return fmt.Errorf("cluster: appendDB on shard %d: %w", tail.shard, err)
	}
	grown := int64(len(features))
	e.routes[len(e.routes)-1].count += grown
	e.total += grown
	e.obsMu.Lock()
	e.heat = append(e.heat, make([]int64, grown)...)
	e.obsMu.Unlock()
	e.publishLocked()
	return nil
}

// ReorgShard rewrites shard s's slice in a new feature order (an
// internal/reorg clustering's Order over the shard's local indices); like
// AppendDB, a failure changes nothing. It requires the shard
// to be routed as one whole database — after a rebalance split the shard's
// range, local reorder would silently permute features that other routes
// still address, so the op refuses.
func (e *Engines) ReorgShard(s int, order []int) error {
	e.admin.Lock()
	defer e.admin.Unlock()
	if e.rebalancing {
		return ErrRebalanceActive
	}
	if s < 0 || s >= len(e.engines) {
		return fmt.Errorf("cluster: shard %d out of range", s)
	}
	var owned []route
	for _, rt := range e.routes {
		if rt.shard == s {
			owned = append(owned, rt)
		}
	}
	if len(owned) != 1 {
		return fmt.Errorf("cluster: shard %d is routed as %d ranges; reorg needs exactly one", s, len(owned))
	}
	rt := owned[0]
	ds := e.engines[s]
	n, err := ds.DBFeatures(rt.db)
	if err != nil {
		return err
	}
	if rt.local != 0 || rt.count != n {
		return fmt.Errorf("cluster: shard %d's route covers [%d, %d) of a %d-feature database; reorg needs the whole database",
			s, rt.local, rt.local+rt.count, n)
	}
	if err := ds.ReorgDB(rt.db, order); err != nil {
		return fmt.Errorf("cluster: reorgDB on shard %d: %w", s, err)
	}
	e.publishLocked()
	return nil
}
