package core

import (
	"errors"
	"fmt"

	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/ssd"
)

// Online-migration admin surface: the cluster rebalancer copies a contiguous
// feature range out of a live database through ReadRangeForMigration (device
// time charged like any other flash activity) while the Begin/EndMigration
// interlock keeps mutating admin ops from invalidating the range mid-move.
// Queries keep running throughout — migration is routed around, never locked
// out.

// ErrMigrating rejects mutating admin ops (AppendDB, ReorgDB, DeleteDB) on a
// database that is mid-migration (between BeginMigration and EndMigration).
var ErrMigrating = errors.New("core: database is mid-migration")

// BeginMigration interlocks a database for an online move: until
// EndMigration, AppendDB/ReorgDB/DeleteDB against it fail with ErrMigrating.
// Double Begin on the same database is an error (one move at a time), so a
// rebalancer can also use the interlock to detect a concurrent move.
func (ds *DeepStore) BeginMigration(id ftl.DBID) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st, err := ds.db(id)
	if err != nil {
		return err
	}
	if st.migrating {
		return fmt.Errorf("%w: database %d", ErrMigrating, id)
	}
	st.migrating = true
	return nil
}

// EndMigration releases the migration interlock.
func (ds *DeepStore) EndMigration(id ftl.DBID) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st, err := ds.db(id)
	if err != nil {
		return err
	}
	if !st.migrating {
		return fmt.Errorf("core: database %d is not migrating", id)
	}
	st.migrating = false
	return nil
}

// Migrating reports whether the database is interlocked by an online move.
func (ds *DeepStore) Migrating(id ftl.DBID) bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st, err := ds.db(id)
	return err == nil && st.migrating
}

// DBFeatures returns the database's current feature count (admin
// bookkeeping: the cluster layer uses it to verify a route still ends at its
// database's tail before extending it with an append).
func (ds *DeepStore) DBFeatures(id ftl.DBID) (int64, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st, err := ds.db(id)
	if err != nil {
		return 0, err
	}
	return st.meta.Layout.Features, nil
}

// ReadRangeForMigration reads features [start, start+num) for an online
// move, charging the device model for the physical pages holding the range:
// plane reads on the owning channels, controller DRAM staging, and the
// external-link transfer to the mover (ssd.Device.StreamRange, the walk
// ReadDB makes): packed neighbors ride along, as they do on real flash.
// Returns deep copies, so the mover's buffer survives concurrent appends to
// the source (readRange, the body ReadDB shares).
func (ds *DeepStore) ReadRangeForMigration(id ftl.DBID, start, num int64) ([][]float32, error) {
	return ds.readRange(id, start, num, 1, "migration read", "ssd_migrate", obs.SpanMigrateOut, func(s ssd.StreamStats) {
		ds.obs.Counter("core_migrate_reads").Inc()
		ds.obs.Counter("core_migrate_features_out").Add(num)
		ds.obs.Counter("core_migrate_pages_out").Add(s.Pages)
	})
}
