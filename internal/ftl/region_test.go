package ftl

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/flash"
)

// kindCase is one row of the region-kind table: who owns a region of the
// kind, a small and a large instance of it (large needs strictly more block
// columns), and what the derived table must look like. Every scenario below
// is written once against a row. The top-level test names are the per-kind
// ones the suite has always carried (the test floor pins them), so each is a
// one-line entry into its scenario.
type kindCase struct {
	kind RegionKind
	// owner registers whoever holds the region and returns its id and the
	// geometry the region stripes over.
	owner        func(t *testing.T, f *FTL) (DBID, flash.Geometry)
	small, large Region
	// table fetches the derived layout through the kind's public accessor.
	table func(f *FTL, id DBID) (DBLayout, bool)
	// check asserts the kind's derivation rule on a set region.
	check func(t *testing.T, data DBLayout, r Region, table DBLayout)
}

// histGeom makes a block column four 64-byte pages, so a history image of a
// few hundred bytes spans several columns.
var histGeom = flash.Geometry{Channels: 2, ChipsPerChannel: 1, PlanesPerChip: 1,
	BlocksPerPlane: 512, PagesPerBlock: 2, PageBytes: 64}

// dbOwner registers an eight-column database (2 KiB features, the last
// column not quite full).
func dbOwner(t *testing.T, f *FTL) (DBID, flash.Geometry) {
	t.Helper()
	m, err := f.CreateDB("owner", template(2048, 8<<20-5000))
	if err != nil {
		t.Fatal(err)
	}
	return m.ID, m.Layout.Geom
}

func dbTable(get func(*DBMeta) (DBLayout, bool)) func(*FTL, DBID) (DBLayout, bool) {
	return func(f *FTL, id DBID) (DBLayout, bool) {
		m, ok := f.Lookup(id)
		if !ok {
			return DBLayout{}, false
		}
		return get(m)
	}
}

var (
	boundKind = kindCase{
		kind:  BoundRegion,
		owner: dbOwner,
		small: Region{Kind: BoundRegion, StripeFeatures: 64, EntryBytes: 144},
		large: Region{Kind: BoundRegion, StripeFeatures: 1, EntryBytes: 16 << 10},
		table: dbTable((*DBMeta).BoundTable),
		check: func(t *testing.T, data DBLayout, r Region, table DBLayout) {
			if table.FeatureBytes != r.EntryBytes || table.Features != data.TotalStripes(r.StripeFeatures) {
				t.Errorf("bound table %+v: want %d B × %d stripes", table, r.EntryBytes, data.TotalStripes(r.StripeFeatures))
			}
		},
	}
	quantKind = kindCase{
		kind:  QuantRegion,
		owner: dbOwner,
		small: Region{Kind: QuantRegion, EntryBytes: 1},
		large: Region{Kind: QuantRegion, EntryBytes: 2},
		table: dbTable((*DBMeta).QuantTable),
		check: func(t *testing.T, data DBLayout, r Region, table DBLayout) {
			if table.FeatureBytes != data.FeatureBytes/4*r.EntryBytes || table.Features != data.Features {
				t.Errorf("quant table %+v over data %+v at %d B/elem", table, data, r.EntryBytes)
			}
			// The narrow image must land on the same channel as the fp32 vector.
			for _, i := range []int64{0, 1, 137, data.Features - 1} {
				if a, b := data.FeatureAddr(i).Channel, table.FeatureAddr(i).Channel; a != b {
					t.Errorf("feature %d: fp32 on channel %d, int8 on channel %d", i, a, b)
				}
			}
		},
	}
	histKind = kindCase{
		kind:  HistRegion,
		owner: func(*testing.T, *FTL) (DBID, flash.Geometry) { return HistOwner, histGeom },
		small: Region{Kind: HistRegion, Payload: bytes.Repeat([]byte{0xAB}, 64+5)},
		large: Region{Kind: HistRegion, Payload: bytes.Repeat([]byte{0xCD}, 1000)},
		table: func(f *FTL, _ DBID) (DBLayout, bool) { return f.HistTable() },
		check: func(t *testing.T, _ DBLayout, r Region, table DBLayout) {
			pages := (int64(len(r.Payload)) + histGeom.PageBytes - 1) / histGeom.PageBytes
			if table.Geom != histGeom || table.FeatureBytes != histGeom.PageBytes || table.Features != pages {
				t.Errorf("history table %+v: want %d whole pages", table, pages)
			}
		},
	}
)

// mustSet sets the region and returns its record.
func mustSet(t *testing.T, f *FTL, id DBID, geom flash.Geometry, r Region) (Region, DBLayout) {
	t.Helper()
	table, _, err := f.SetRegion(id, geom, r)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := f.Region(id, r.Kind)
	if !ok {
		t.Fatalf("region kind %d not recorded", r.Kind)
	}
	return got, table
}

func assertOwned(t *testing.T, f *FTL, id DBID, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if f.blockOwner[i] != id {
			t.Fatalf("column %d owned by %d, want %d", i, f.blockOwner[i], id)
		}
	}
}

// regionSetDrop: set → derived layout; a grown region reallocates (the old
// columns are erased); drop erases, bumps wear and frees everything.
func regionSetDrop(t *testing.T, k kindCase) {
	f := newTestFTL()
	id, geom := k.owner(t, f)
	data := f.owner(id).Layout
	free := f.FreeBlocks()

	r, table := mustSet(t, f, id, geom, k.small)
	if r.Blocks < 1 || r.StartBlock < f.reservedBlocks || table.StartBlock != r.StartBlock {
		t.Fatalf("region %+v, table starts at %d", r, table.StartBlock)
	}
	if !bytes.Equal(r.Payload, k.small.Payload) {
		t.Error("payload did not read back")
	}
	assertOwned(t, f, id, r.StartBlock, r.Blocks)
	if f.FreeBlocks() != free-r.Blocks {
		t.Errorf("free blocks %d, want %d", f.FreeBlocks(), free-r.Blocks)
	}
	if got, ok := k.table(f, id); !ok || got != table {
		t.Errorf("accessor table %+v (%v), SetRegion returned %+v", got, ok, table)
	}
	k.check(t, data, r, table)

	wear := f.wear[r.StartBlock]
	grown, table := mustSet(t, f, id, geom, k.large)
	if grown.Blocks <= r.Blocks {
		t.Fatalf("large region holds %d columns, small held %d", grown.Blocks, r.Blocks)
	}
	if f.wear[r.StartBlock] != wear+1 {
		t.Error("replaced region's columns not erased")
	}
	if f.FreeBlocks() != free-grown.Blocks {
		t.Errorf("free blocks %d after regrow, want %d", f.FreeBlocks(), free-grown.Blocks)
	}
	k.check(t, data, grown, table)

	wear = f.wear[grown.StartBlock]
	f.DropRegion(id, k.kind)
	if _, ok := f.Region(id, k.kind); ok {
		t.Error("region survives drop")
	}
	if _, ok := k.table(f, id); ok {
		t.Error("table derivable after drop")
	}
	if f.FreeBlocks() != free || f.wear[grown.StartBlock] != wear+1 {
		t.Errorf("drop left %d free (want %d), wear %d (want %d)",
			f.FreeBlocks(), free, f.wear[grown.StartBlock], wear+1)
	}
	f.DropRegion(id, k.kind) // second drop is a no-op
	if f.wear[grown.StartBlock] != wear+1 {
		t.Error("second drop erased again")
	}
}

func TestSetAndDropBoundTable(t *testing.T)            { regionSetDrop(t, boundKind) }
func TestSetQuantTable(t *testing.T)                   { regionSetDrop(t, quantKind) }
func TestSetHistoryAllocatesAndReadsBack(t *testing.T) { regionSetDrop(t, histKind) }

// TestSetRegionGrowsInPlace: a region of the same shape whose columns still
// hold the grown table stays where it is (fresh false, nothing erased, the
// new payload recorded); one that outgrows them is re-placed (fresh true, the
// old columns erased).
func TestSetRegionGrowsInPlace(t *testing.T) {
	f := newTestFTL()
	set := func(n int) (Region, bool) {
		t.Helper()
		r := Region{Kind: HistRegion, Payload: bytes.Repeat([]byte{byte(n)}, n)}
		_, fresh, err := f.SetRegion(HistOwner, histGeom, r)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := f.Region(HistOwner, HistRegion)
		if !bytes.Equal(got.Payload, r.Payload) {
			t.Errorf("%d-byte payload did not read back", n)
		}
		return got, fresh
	}
	first, fresh := set(69) // two 64-byte pages: one per channel, one column
	if !fresh {
		t.Error("a new region is not fresh")
	}
	wear, free := f.wear[first.StartBlock], f.FreeBlocks()
	if grown, fresh := set(4 * 64); fresh || grown.StartBlock != first.StartBlock || grown.Blocks != first.Blocks ||
		f.wear[first.StartBlock] != wear || f.FreeBlocks() != free {
		t.Errorf("a table that still fits moved or erased: %+v → %+v (fresh %v), wear %d → %d",
			first, grown, fresh, wear, f.wear[first.StartBlock])
	}
	if moved, fresh := set(1000); !fresh || moved.Blocks != 4 || f.wear[first.StartBlock] != wear+1 {
		t.Errorf("an outgrown table was not re-placed: %+v (fresh %v), old column wear %d", moved, fresh, f.wear[first.StartBlock])
	}
}

// regionCompact: with a hole below the owner's data and another between the
// data and the region, Compact moves the two runs by different distances and
// must retarget each start block on its own. (The regression: Compact used to
// clobber Layout.StartBlock with whichever run moved last and never updated
// the table's; the history sentinel never appears in the database table.)
func regionCompact(t *testing.T, k kindCase) {
	f := newTestFTL()
	var holes [2]*DBMeta
	var err error
	if holes[0], err = f.CreateDB("hole", smallLayout(2)); err != nil {
		t.Fatal(err)
	}
	id, geom := k.owner(t, f)
	if holes[1], err = f.CreateDB("hole", smallLayout(3)); err != nil {
		t.Fatal(err)
	}
	before, _ := mustSet(t, f, id, geom, k.small)
	dataBefore := f.owner(id).Layout
	tableBefore, _ := k.table(f, id)
	for _, h := range holes {
		if err := f.DeleteDB(h.ID); err != nil {
			t.Fatal(err)
		}
	}
	if moved := f.Compact(); moved == 0 {
		t.Fatal("compact moved nothing; test setup left no hole")
	}
	after, ok := f.Region(id, k.kind)
	if !ok {
		t.Fatal("region lost in compaction")
	}
	if after.StartBlock >= before.StartBlock || after.Blocks != before.Blocks {
		t.Fatalf("region did not pack down: %+v -> %+v", before, after)
	}
	assertOwned(t, f, id, after.StartBlock, after.Blocks)
	if !bytes.Equal(after.Payload, before.Payload) {
		t.Error("payload changed across compaction")
	}
	if id != HistOwner {
		data := f.owner(id).Layout
		if data.StartBlock != f.reservedBlocks || after.StartBlock != data.StartBlock+data.BlocksPerPlane() {
			t.Errorf("data at %d, region at %d: want them packed from column %d",
				data.StartBlock, after.StartBlock, f.reservedBlocks)
		}
		if dataBefore.StartBlock-data.StartBlock == before.StartBlock-after.StartBlock {
			t.Error("test setup: data and region moved by the same distance")
		}
		assertOwned(t, f, id, data.StartBlock, data.BlocksPerPlane())
	}
	tableAfter, ok := k.table(f, id)
	tableBefore.StartBlock = after.StartBlock
	if !ok || tableAfter != tableBefore {
		t.Errorf("derived table %+v after compact, want %+v", tableAfter, tableBefore)
	}
	if f.Fragmentation() != 0 {
		t.Errorf("fragmentation %v after compact", f.Fragmentation())
	}
	// The compacted state persists and restores intact.
	g := roundTrip(t, f)
	if got, _ := g.Region(id, k.kind); !reflect.DeepEqual(got, after) {
		t.Errorf("restored region %+v, want %+v", got, after)
	}
}

func TestCompactPreservesBoundTable(t *testing.T) { regionCompact(t, boundKind) }
func TestCompactRetargetsQuantTable(t *testing.T) { regionCompact(t, quantKind) }
func TestCompactRetargetsHistory(t *testing.T)    { regionCompact(t, histKind) }

func roundTrip(t *testing.T, f *FTL) *FTL {
	t.Helper()
	img, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := f.Snapshot(); !bytes.Equal(img, again) {
		t.Fatal("snapshot not deterministic")
	}
	g, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	if !checkInvariants(t, g) {
		t.Fatal("restored FTL violates invariants")
	}
	return g
}

// regionSnapshot: the region record (and payload) survives a power cycle,
// owners without one gain none, and a dropped region stays dropped.
func regionSnapshot(t *testing.T, k kindCase) {
	f := newTestFTL()
	id, geom := k.owner(t, f)
	if _, err := f.CreateDB("without-table", template(2048, 500)); err != nil {
		t.Fatal(err)
	}
	want, _ := mustSet(t, f, id, geom, k.small)
	g := roundTrip(t, f)
	if got, ok := g.Region(id, k.kind); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("restored region %+v (%v), want %+v", got, ok, want)
	}
	wantTable, _ := k.table(f, id)
	if got, ok := k.table(g, id); !ok || got != wantTable {
		t.Errorf("restored table %+v (%v), want %+v", got, ok, wantTable)
	}
	for _, m := range append(g.DBs(), &g.self) {
		for _, r := range m.held() {
			if m.ID != id || r.Kind != k.kind {
				t.Errorf("owner %d gained a region of kind %d", m.ID, r.Kind)
			}
		}
	}
	f.DropRegion(id, k.kind)
	if _, ok := roundTrip(t, f).Region(id, k.kind); ok {
		t.Error("region resurrected from a snapshot taken after its drop")
	}
}

func TestSnapshotRoundTripBoundTable(t *testing.T) { regionSnapshot(t, boundKind) }
func TestQuantTablePersists(t *testing.T)          { regionSnapshot(t, quantKind) }
func TestPersistV4HistoryRoundTrip(t *testing.T)   { regionSnapshot(t, histKind) }

// regionAppendOverflow is the regression for the owned-column accounting
// bug: AppendDB used to count a table's columns (owned by the same id) as
// feature capacity, letting an append overflow feature data into the table.
func regionAppendOverflow(t *testing.T, k kindCase) {
	f := newTestFTL()
	id, geom := k.owner(t, f)
	mustSet(t, f, id, geom, k.small)
	meta, _ := f.Lookup(id)
	dataBlocks := meta.Layout.BlocksPerPlane()
	// The largest feature count that still fits the data allocation.
	grown, fit := meta.Layout, meta.Layout.Features
	for step := int64(1 << 16); step > 0; step /= 2 {
		for grown.Features = fit + step; grown.BlocksPerPlane() <= dataBlocks; grown.Features += step {
			fit += step
		}
	}
	if _, err := f.AppendDB(id, fit-meta.Layout.Features); err != nil {
		t.Fatalf("in-allocation append rejected: %v", err)
	}
	if _, err := f.AppendDB(id, 1); err == nil {
		t.Fatal("append overflowed into the region's block columns")
	}
}

func TestAppendCannotOverflowIntoBoundTable(t *testing.T) { regionAppendOverflow(t, boundKind) }
func TestQuantTableAppendAccounting(t *testing.T)         { regionAppendOverflow(t, quantKind) }

// regionDeleteFrees: deleting the owning database frees its tables too.
func regionDeleteFrees(t *testing.T, k kindCase) {
	f := newTestFTL()
	free := f.FreeBlocks()
	id, geom := k.owner(t, f)
	mustSet(t, f, id, geom, k.small)
	if err := f.DeleteDB(id); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlocks() != free {
		t.Errorf("free blocks %d after delete, want %d", f.FreeBlocks(), free)
	}
	if _, ok := f.Region(id, k.kind); ok {
		t.Error("region of a deleted database still recorded")
	}
}

func TestDeleteDBFreesBoundTable(t *testing.T) { regionDeleteFrees(t, boundKind) }
func TestDeleteDBFreesQuantTable(t *testing.T) { regionDeleteFrees(t, quantKind) }

func TestStripeCountsMatchDerivedLayout(t *testing.T) {
	// The bound table reuses DBLayout by setting Features = TotalStripes:
	// that only works if the derived layout deals stripe entries back to the
	// same channels. Check the identity across uneven channel shares.
	for _, features := range []int64{1, 15, 16, 17, 100, 1023} {
		l := template(2048, features)
		l.StartBlock = 1
		for _, sf := range []int64{1, 3, 64} {
			derived := DBLayout{Geom: l.Geom, FeatureBytes: 16, Features: l.TotalStripes(sf), StartBlock: 1}
			for ch := 0; ch < l.Geom.Channels; ch++ {
				if got, want := derived.ChannelFeatures(ch), l.ChannelStripes(ch, sf); got != want {
					t.Fatalf("features=%d sf=%d ch=%d: derived layout holds %d entries, want %d stripes",
						features, sf, ch, got, want)
				}
			}
		}
	}
}

// rejects asserts SetRegion refuses r and leaves the owner without the kind.
func rejects(t *testing.T, f *FTL, id DBID, geom flash.Geometry, r Region, why string) {
	t.Helper()
	if _, _, err := f.SetRegion(id, geom, r); err == nil {
		t.Errorf("%s accepted", why)
	}
	if _, ok := f.Region(id, r.Kind); ok && r.Kind < numRegionKinds {
		t.Errorf("%s: owner keeps a region after the failed set", why)
	}
}

func TestSetBoundTableInvalidArgs(t *testing.T) {
	f := newTestFTL()
	id, geom := dbOwner(t, f)
	rejects(t, f, id, geom, Region{Kind: BoundRegion, StripeFeatures: 0, EntryBytes: 16}, "zero stripe")
	rejects(t, f, id, geom, Region{Kind: BoundRegion, StripeFeatures: 64, EntryBytes: 0}, "zero entry size")
	rejects(t, f, 999, geom, boundKind.small, "unknown db")
	rejects(t, f, id, histGeom, boundKind.small, "foreign geometry")
	// A failed set drops the table that was there: stale is worse than none.
	mustSet(t, f, id, geom, boundKind.small)
	rejects(t, f, id, geom, Region{Kind: BoundRegion}, "empty shape over a live table")
}

func TestSetQuantTableRejectsBadWidth(t *testing.T) {
	f := newTestFTL()
	id, geom := dbOwner(t, f)
	for _, eb := range []int64{0, -1, 4, 8} {
		rejects(t, f, id, geom, Region{Kind: QuantRegion, EntryBytes: eb}, "bad element width")
	}
	rejects(t, f, 999, geom, quantKind.small, "unknown db")
	// Feature sizes that are not whole fp32 vectors cannot be re-encoded.
	odd, err := f.CreateDB("odd", template(2049, 100))
	if err != nil {
		t.Fatal(err)
	}
	rejects(t, f, odd.ID, geom, quantKind.small, "non-fp32-aligned feature size")
}

func TestSetRegionRejectsWrongOwner(t *testing.T) {
	f := newTestFTL()
	id, geom := dbOwner(t, f)
	rejects(t, f, id, geom, histKind.small, "history under a database")
	rejects(t, f, HistOwner, geom, boundKind.small, "bound table under the FTL itself")
	rejects(t, f, HistOwner, geom, Region{Kind: HistRegion}, "empty history image")
	rejects(t, f, id, geom, Region{Kind: numRegionKinds}, "unknown kind")
	f.DropRegion(id, numRegionKinds) // out-of-range drops are no-ops, not panics
}

func TestHistoryDoesNotCollideWithDBs(t *testing.T) {
	f := newTestFTL()
	lay, _ := mustSet(t, f, HistOwner, histGeom, histKind.small)
	meta, err := f.CreateDB("db", template(2048, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	dbEnd := meta.Layout.StartBlock + meta.Layout.BlocksPerPlane()
	if meta.Layout.StartBlock < lay.StartBlock+lay.Blocks && lay.StartBlock < dbEnd {
		t.Fatalf("db [%d,%d) overlaps history [%d,+%d)",
			meta.Layout.StartBlock, dbEnd, lay.StartBlock, lay.Blocks)
	}
	// Deleting the database must not free history columns.
	if err := f.DeleteDB(meta.ID); err != nil {
		t.Fatal(err)
	}
	if got, ok := f.Region(HistOwner, HistRegion); !ok || !reflect.DeepEqual(got, lay) {
		t.Fatal("history lost after DeleteDB")
	}
	assertOwned(t, f, HistOwner, lay.StartBlock, lay.Blocks)
}
