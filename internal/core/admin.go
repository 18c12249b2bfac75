package core

import (
	"fmt"
	"slices"

	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/reorg"
	"repro/internal/ssd"
)

// Administrative operations beyond the Table 2 query API: database deletion
// and garbage collection. Intelligent-query databases are written once and
// queried many times (§4.7.2), but datasets do get retired; deletion returns
// block columns to the FTL and compaction coalesces the resulting holes.

// DeleteDB removes a database: its flash block columns are erased and freed
// (wear accounted), its materialized vectors released, its cached answers
// dropped (dropCachedAnswers), and subsequent queries against the id fail.
func (ds *DeepStore) DeleteDB(id ftl.DBID) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st, err := ds.db(id)
	if err != nil {
		return err
	}
	if st.migrating {
		return fmt.Errorf("%w: deleteDB of database %d", ErrMigrating, id)
	}
	if err := ds.dev.DeleteDB(id); err != nil {
		return err
	}
	delete(ds.dbs, id)
	ds.dropCachedAnswers(id)
	return nil
}

// dropCachedAnswers frees dead slots: it clears the query cache
// (core_qcache_clears) when it holds an answer of database id, which an admin
// op removes or re-identifies. qcache keeps no per-entry removal.
func (ds *DeepStore) dropCachedAnswers(id ftl.DBID) {
	if ds.qc != nil && slices.ContainsFunc(ds.qcr.scopes[:ds.qc.Len()], func(s cacheScope) bool { return s.db == id }) {
		ds.qc.Clear()
		ds.obs.Counter("core_qcache_clears").Inc()
	}
}

// CompactFlash runs on demand the garbage collection an allocation runs when
// no free run fits, charged alike. Returns the number of columns moved.
func (ds *DeepStore) CompactFlash() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.dev.Compact()
}

// ReorgDB rewrites a database in a new feature order (an internal/reorg
// clustering's Order, typically) — the §7 in-storage reorganization path.
// The migration is charged in the device model: every data page is read,
// staged through controller DRAM, and reprogrammed. The derived tables are
// rebuilt from scratch atomically with the move (refreshTables: every
// stripe's membership and every int8 slot changed), its cached answers are
// dropped (dropCachedAnswers), and its identity is re-derived from the new
// order, so no stored answer of the old order applies.
func (ds *DeepStore) ReorgDB(id ftl.DBID, order []int) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st, err := ds.db(id)
	if err != nil {
		return err
	}
	if st.vectors == nil {
		return fmt.Errorf("core: reorg of a declared (spec-only) database")
	}
	if st.migrating {
		return fmt.Errorf("%w: reorg of database %d", ErrMigrating, id)
	}
	moved, err := reorg.ApplyOrder(st.vectors, order)
	if err != nil {
		return err
	}
	ds.dev.Walk(ssd.Walk{Layout: st.meta.Layout, Pages: st.meta.Layout.ChannelSpan,
		Hops:  []ssd.Hop{ds.dev.HopFlashRead, ds.dev.HopDRAM, ds.dev.HopProgram},
		Depth: ssd.IssueAll, Prefix: "ssd_reorg", Span: obs.SpanReorg}, nil)
	ds.engine.Run()
	st.vectors = moved
	st.ident = contentIdent(moved)
	ds.dropCachedAnswers(id)
	ds.refreshTables(st, 0) // every slot moved
	return nil
}

// Checkpoint persists the FTL metadata to the reserved flash block (§4.4)
// and returns the image a power-cycled device would restore from. With
// history enabled, the query-history store is first flushed into its own
// flash region (programs charged on the simulated clock), so the image also
// carries the history RestoreHistory rebuilds from.
func (ds *DeepStore) Checkpoint() ([]byte, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.hist != nil {
		ds.dev.FTL.DropRegion(ftl.HistOwner, ftl.HistRegion) // rewritten whole
		if err := ds.dev.PlaceRegion(ftl.HistOwner, ftl.Region{Kind: ftl.HistRegion, Payload: ds.hist.Snapshot()}, nil); err != nil {
			return nil, fmt.Errorf("core: checkpoint history: %w", err)
		}
	}
	img, err := ds.dev.PersistMetadata()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return img, nil
}
