package ftl

import (
	"testing"
)

// fragment builds an FTL with alternating allocated/free columns.
func fragment(t *testing.T) (*FTL, []*DBMeta) {
	t.Helper()
	// 17 columns: metadata column 0 plus exactly eight 2-column DBs, so
	// the device is full before the deletions.
	f := NewFTL(17)
	// Allocate eight 2-column DBs filling columns 1..16 (plus metadata 0),
	// then delete every other one, leaving 2-column holes.
	var metas []*DBMeta
	for i := 0; i < 8; i++ {
		m, err := f.CreateDB("db", smallLayout(2))
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, m)
	}
	var kept []*DBMeta
	for i, m := range metas {
		if i%2 == 0 {
			if err := f.DeleteDB(m.ID); err != nil {
				t.Fatal(err)
			}
		} else {
			kept = append(kept, m)
		}
	}
	return f, kept
}

// smallLayout builds a layout needing exactly cols block columns.
// One block column holds PagesPerBlock*planes pages per channel; with the
// default geometry that is 128*32 = 4096 pages per channel per column, i.e.
// 4096*32ch = 131072 16 KB features per column.
func smallLayout(cols int) DBLayout {
	l := template(16<<10, int64(cols)*131072)
	return l
}

func TestFragmentationMetric(t *testing.T) {
	f, _ := fragment(t)
	if got := f.Fragmentation(); got <= 0.5 {
		t.Errorf("fragmentation = %v, want > 0.5 for alternating holes", got)
	}
	fresh := NewFTL(32)
	if got := fresh.Fragmentation(); got != 0 {
		t.Errorf("fresh FTL fragmentation = %v", got)
	}
}

func TestCompactCoalescesFreeSpace(t *testing.T) {
	f, kept := fragment(t)
	before := f.LargestFreeRun()
	moved := f.Compact()
	if moved == 0 {
		t.Fatal("compaction moved nothing")
	}
	after := f.LargestFreeRun()
	if after <= before {
		t.Errorf("largest free run %d -> %d, want growth", before, after)
	}
	if f.Fragmentation() != 0 {
		t.Errorf("post-compact fragmentation = %v, want 0", f.Fragmentation())
	}
	// Kept databases remain registered with valid, disjoint regions.
	seen := map[int]DBID{}
	for _, m := range kept {
		got, ok := f.Lookup(m.ID)
		if !ok {
			t.Fatalf("db %d lost in compaction", m.ID)
		}
		for c := got.Layout.StartBlock; c < got.Layout.StartBlock+got.Layout.BlocksPerPlane(); c++ {
			if owner, clash := seen[c]; clash {
				t.Fatalf("column %d owned by both %d and %d", c, owner, got.ID)
			}
			seen[c] = got.ID
		}
	}
	// Free-block count is preserved.
	if f.FreeBlocks() != 17-1-8 {
		t.Errorf("free blocks = %d, want %d", f.FreeBlocks(), 17-1-8)
	}
}

func TestCompactIncrementsWear(t *testing.T) {
	f, _ := fragment(t)
	var wearBefore uint64
	for b := 1; b < 17; b++ {
		wearBefore += f.wear[b]
	}
	f.Compact()
	var wearAfter uint64
	for b := 1; b < 17; b++ {
		wearAfter += f.wear[b]
	}
	if wearAfter <= wearBefore {
		t.Error("compaction did not charge erases")
	}
}

func TestCompactIdempotent(t *testing.T) {
	f, _ := fragment(t)
	f.Compact()
	if moved := f.Compact(); moved != 0 {
		t.Errorf("second compaction moved %d columns", moved)
	}
}

// TestCreateDBCompacting: free space is 8 columns in 2-column holes, so no
// run fits a 4-column database; CreateDB compacts and places it, and reports
// every extent it moved with its old and new start.
func TestCreateDBCompacting(t *testing.T) {
	f, kept := fragment(t)
	if f.LargestFreeRun() >= 4 {
		t.Fatal("test setup left a 4-column run")
	}
	before := map[DBID]int{}
	for _, m := range kept {
		before[m.ID] = m.Layout.StartBlock
	}
	m, err := f.CreateDB("big", smallLayout(4))
	if err != nil {
		t.Fatalf("compacting create failed: %v", err)
	}
	if m.Layout.BlocksPerPlane() != 4 {
		t.Errorf("created db spans %d columns", m.Layout.BlocksPerPlane())
	}
	moves := f.TakeMoves()
	if len(moves) == 0 {
		t.Fatal("compaction reported no moves")
	}
	for _, mv := range moves {
		var owner *DBMeta
		for _, k := range kept {
			if k.Layout.StartBlock == mv.Table.StartBlock {
				owner = k
			}
		}
		if owner == nil || before[owner.ID] != mv.From || owner.Layout != mv.Table {
			t.Errorf("move %+v names no relocated database", mv)
		}
	}
	if again := f.TakeMoves(); len(again) != 0 {
		t.Errorf("moves reported twice: %+v", again)
	}
	if !checkInvariants(t, f) {
		t.Error("invariants broken after a compacting create")
	}
}

func TestCreateDBCompactingGenuinelyFull(t *testing.T) {
	f, _ := fragment(t)
	// 9 columns exceed the 8 free ones even after GC, and nothing moves.
	if _, err := f.CreateDB("huge", smallLayout(9)); err == nil {
		t.Error("over-capacity create succeeded")
	}
	if moves := f.TakeMoves(); len(moves) != 0 {
		t.Errorf("a refused create moved %d extents", len(moves))
	}
}
