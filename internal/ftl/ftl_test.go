package ftl

import (
	"testing"

	"repro/internal/flash"
)

func newTestFTL() *FTL {
	return NewFTL(flash.DefaultGeometry().BlocksPerPlane)
}

func template(featureBytes, features int64) DBLayout {
	return DBLayout{Geom: flash.DefaultGeometry(), FeatureBytes: featureBytes, Features: features}
}

func TestCreateAndLookup(t *testing.T) {
	f := newTestFTL()
	meta, err := f.CreateDB("mir", template(2048, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID == 0 {
		t.Error("zero DBID")
	}
	if meta.Layout.StartBlock < 1 {
		t.Errorf("db allocated into reserved block %d", meta.Layout.StartBlock)
	}
	got, ok := f.Lookup(meta.ID)
	if !ok || got.Name != "mir" {
		t.Errorf("lookup = %+v, %v", got, ok)
	}
}

func TestCreateDBsDoNotOverlap(t *testing.T) {
	f := newTestFTL()
	a, err := f.CreateDB("a", template(16<<10, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.CreateDB("b", template(16<<10, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	aEnd := a.Layout.StartBlock + a.Layout.BlocksPerPlane()
	bEnd := b.Layout.StartBlock + b.Layout.BlocksPerPlane()
	if a.Layout.StartBlock < bEnd && b.Layout.StartBlock < aEnd {
		t.Errorf("databases overlap: a=[%d,%d) b=[%d,%d)",
			a.Layout.StartBlock, aEnd, b.Layout.StartBlock, bEnd)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	f := NewFTL(4) // 1 reserved + 3 usable columns
	// Each paper-scale DB needs ~13 block columns; must fail.
	if _, err := f.CreateDB("big", template(2048, (25<<30)/2048)); err == nil {
		t.Error("oversized DB accepted")
	}
	// A small DB still fits.
	if _, err := f.CreateDB("small", template(2048, 1000)); err != nil {
		t.Errorf("small DB rejected: %v", err)
	}
}

func TestTwentyPaperDatabasesFit(t *testing.T) {
	// §6.1 warms the SSD with 20 databases of 25 GB each; the 1 TB device
	// must hold them. Use the lightest layout (16 KB features, no waste).
	f := newTestFTL()
	for i := 0; i < 20; i++ {
		if _, err := f.CreateDB("db", template(16<<10, (25<<30)/(16<<10))); err != nil {
			t.Fatalf("database %d rejected: %v", i, err)
		}
	}
}

func TestAppendWithinAllocation(t *testing.T) {
	f := newTestFTL()
	// 128 pages/block * 1024 planes * 8 features/page per block column.
	meta, err := f.CreateDB("x", template(2048, 100))
	if err != nil {
		t.Fatal(err)
	}
	grown, err := f.AppendDB(meta.ID, 50)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Layout.Features != 150 {
		t.Errorf("features = %d, want 150", grown.Layout.Features)
	}
	// Overflowing the single allocated block column must fail.
	if _, err := f.AppendDB(meta.ID, 10<<20); err == nil {
		t.Error("overflow append accepted")
	}
	if _, err := f.AppendDB(999, 1); err == nil {
		t.Error("append to unknown DB accepted")
	}
	if _, err := f.AppendDB(meta.ID, -1); err == nil {
		t.Error("negative append accepted")
	}
}

func TestDeleteFreesAndWears(t *testing.T) {
	f := newTestFTL()
	free0 := f.FreeBlocks()
	meta, _ := f.CreateDB("x", template(16<<10, 1<<20))
	if f.FreeBlocks() >= free0 {
		t.Error("create did not consume blocks")
	}
	start := meta.Layout.StartBlock
	if err := f.DeleteDB(meta.ID); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlocks() != free0 {
		t.Errorf("delete did not free all blocks: %d vs %d", f.FreeBlocks(), free0)
	}
	if f.wear[start] != 1 {
		t.Errorf("wear = %d, want 1", f.wear[start])
	}
	if _, ok := f.Lookup(meta.ID); ok {
		t.Error("deleted DB still present")
	}
	if err := f.DeleteDB(meta.ID); err == nil {
		t.Error("double delete accepted")
	}
}

func TestWearLevelingPrefersLeastWorn(t *testing.T) {
	f := NewFTL(32)
	// Burn the low region with create/delete cycles.
	for i := 0; i < 5; i++ {
		m, err := f.CreateDB("churn", template(16<<10, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.DeleteDB(m.ID); err != nil {
			t.Fatal(err)
		}
	}
	if f.MaxWearSkew() == 0 {
		t.Skip("allocator spread wear perfectly; skew test not applicable")
	}
	// The next allocation must avoid the most-worn column.
	m, err := f.CreateDB("fresh", template(16<<10, 1000))
	if err != nil {
		t.Fatal(err)
	}
	var maxWear uint64
	maxBlock := 0
	for b := 1; b < 32; b++ {
		if f.wear[b] > maxWear {
			maxWear, maxBlock = f.wear[b], b
		}
	}
	if m.Layout.StartBlock == maxBlock {
		t.Errorf("allocator chose most-worn block %d (wear %d)", maxBlock, maxWear)
	}
}

func TestDBsSorted(t *testing.T) {
	f := newTestFTL()
	for i := 0; i < 3; i++ {
		if _, err := f.CreateDB("db", template(16<<10, 100)); err != nil {
			t.Fatal(err)
		}
	}
	dbs := f.DBs()
	if len(dbs) != 3 {
		t.Fatalf("DBs = %d, want 3", len(dbs))
	}
	for i := 1; i < len(dbs); i++ {
		if dbs[i].ID <= dbs[i-1].ID {
			t.Error("DBs not sorted by ID")
		}
	}
}
