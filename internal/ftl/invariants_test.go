package ftl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// checkInvariants asserts the FTL's structural invariants: the reserved
// column is untouched, every registered database owns a disjoint,
// correctly-sized data run plus exactly its regions' columns, and the
// ownership map contains no orphans.
func checkInvariants(t *testing.T, f *FTL) bool {
	t.Helper()
	if f.blockOwner[0] != ^DBID(0) {
		t.Log("reserved column reassigned")
		return false
	}
	owned := map[DBID]int{}
	for i := f.reservedBlocks; i < len(f.blockOwner); i++ {
		id := f.blockOwner[i]
		if id == 0 {
			continue
		}
		if f.owner(id) == nil {
			t.Logf("column %d owned by unregistered db %d", i, id)
			return false
		}
		owned[id]++
	}
	for _, meta := range append(f.DBs(), &f.self) {
		id, need, tables := meta.ID, 0, 0
		if id != HistOwner { // the FTL's own regions hang off no data
			need = max(meta.Layout.BlocksPerPlane(), 1)
		}
		for _, r := range meta.held() {
			tables += r.Blocks
			for c := r.StartBlock; c < r.StartBlock+r.Blocks; c++ {
				if f.blockOwner[c] != id {
					t.Logf("owner %d region kind %d broken at column %d", id, r.Kind, c)
					return false
				}
			}
		}
		if owned[id] != need+tables {
			t.Logf("owner %d owns %d columns, needs %d + %d in regions", id, owned[id], need, tables)
			return false
		}
		// The region is contiguous starting at StartBlock.
		for c := meta.Layout.StartBlock; c < meta.Layout.StartBlock+need; c++ {
			if f.blockOwner[c] != id {
				t.Logf("db %d region broken at column %d", id, c)
				return false
			}
		}
	}
	return true
}

// TestFTLInvariantsUnderRandomWorkload drives random create/delete/compact
// sequences and checks the structural invariants after every operation.
func TestFTLInvariantsUnderRandomWorkload(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ftl := NewFTL(24)
		var live []DBID
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0, 1: // create (50%)
				cols := 1 + rng.Intn(3)
				m, err := ftl.CreateDB("db", smallLayout(cols))
				if err == nil {
					live = append(live, m.ID)
				}
			case 2: // delete
				if len(live) > 0 {
					i := rng.Intn(len(live))
					if err := ftl.DeleteDB(live[i]); err != nil {
						return false
					}
					live = append(live[:i], live[i+1:]...)
				}
			case 3: // compact
				ftl.Compact()
			}
			if !checkInvariants(t, ftl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotSurvivesRandomWorkload: snapshot/restore at a random point
// reproduces the exact allocation state.
func TestSnapshotSurvivesRandomWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := NewFTL(24)
	var live []DBID
	for op := 0; op < 30; op++ {
		if rng.Intn(3) != 0 || len(live) == 0 {
			if m, err := f.CreateDB("db", smallLayout(1+rng.Intn(2))); err == nil {
				live = append(live, m.ID)
			}
		} else {
			i := rng.Intn(len(live))
			_ = f.DeleteDB(live[i])
			live = append(live[:i], live[i+1:]...)
		}
	}
	img, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	if !checkInvariants(t, g) {
		t.Error("restored FTL violates invariants")
	}
	if g.FreeBlocks() != f.FreeBlocks() || len(g.DBs()) != len(f.DBs()) {
		t.Error("restored state differs")
	}
}
