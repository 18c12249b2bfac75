package ftl

import (
	"errors"
	"testing"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	f := newTestFTL()
	a, err := f.CreateDB("alpha", template(2048, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.CreateDB("beta", template(44<<10, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteDB(a.ID); err != nil {
		t.Fatal(err)
	}
	c, err := f.CreateDB("gamma", template(800, 50_000))
	if err != nil {
		t.Fatal(err)
	}

	img, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}

	// Databases survive with identical metadata.
	for _, want := range []*DBMeta{b, c} {
		got, ok := g.Lookup(want.ID)
		if !ok {
			t.Fatalf("db %d lost across power cycle", want.ID)
		}
		if got.Name != want.Name || got.Layout != want.Layout {
			t.Errorf("db %d metadata changed: %+v vs %+v", want.ID, got, want)
		}
	}
	if _, ok := g.Lookup(a.ID); ok {
		t.Error("deleted db resurrected")
	}
	// Allocation state survives: free counts and wear match.
	if g.FreeBlocks() != f.FreeBlocks() {
		t.Errorf("free blocks %d vs %d", g.FreeBlocks(), f.FreeBlocks())
	}
	if g.wear[a.Layout.StartBlock] != f.wear[a.Layout.StartBlock] {
		t.Error("wear counters lost")
	}
	// New allocations continue with fresh IDs and do not collide.
	d, err := g.CreateDB("delta", template(2048, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if d.ID <= c.ID {
		t.Errorf("restored FTL reused ID %d", d.ID)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore([]byte("garbage")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	f := newTestFTL()
	img, _ := f.Snapshot()
	img[4] = 0xFF // corrupt version
	if _, err := Restore(img); err == nil {
		t.Error("bad version accepted")
	}
}

func TestRestoreRejectsTruncated(t *testing.T) {
	f := newTestFTL()
	if _, err := f.CreateDB("x", template(2048, 1000)); err != nil {
		t.Fatal(err)
	}
	img, _ := f.Snapshot()
	for _, cut := range []int{3, 10, len(img) / 2, len(img) - 1} {
		if _, err := Restore(img[:cut]); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
}

func TestRestoreCrossChecksOwnership(t *testing.T) {
	f := newTestFTL()
	m, _ := f.CreateDB("x", template(2048, 1000))
	img, _ := f.Snapshot()
	g, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the restored db owns columns.
	got, _ := g.Lookup(m.ID)
	if got.Layout.StartBlock < 1 {
		t.Error("restored db has no allocation")
	}
}

func TestPersistV4RejectsBadHistoryRecord(t *testing.T) {
	f := newTestFTL()
	mustSet(t, f, HistOwner, histGeom, histKind.small)
	img, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Truncating inside the history payload must fail cleanly.
	if _, err := Restore(img[:len(img)-10]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated history image: %v, want ErrCorrupt", err)
	}
}

// fourRegionImage snapshots a small FTL holding every kind of object the
// device stores: two databases' data, a bound table, an int8 table and the
// history image, after a delete and a compaction so wear is non-trivial.
func fourRegionImage(t testing.TB) []byte {
	t.Helper()
	f := NewFTL(40)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	hole, err := f.CreateDB("hole", smallLayout(2))
	must(err)
	a, err := f.CreateDB("alpha", template(2048, 3<<20))
	must(err)
	_, err = f.CreateDB("beta", smallLayout(1))
	must(err)
	_, _, err = f.SetRegion(a.ID, a.Layout.Geom, boundKind.small)
	must(err)
	_, _, err = f.SetRegion(a.ID, a.Layout.Geom, quantKind.small)
	must(err)
	_, _, err = f.SetRegion(HistOwner, histGeom, histKind.large)
	must(err)
	must(f.DeleteDB(hole.ID))
	f.Compact()
	img, err := f.Snapshot()
	must(err)
	return img
}

func TestRestoredFourRegionImagePassesInvariants(t *testing.T) {
	img := fourRegionImage(t)
	g, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	if !checkInvariants(t, g) {
		t.Fatal("restored FTL violates invariants")
	}
	for _, k := range []kindCase{boundKind, quantKind, histKind} {
		id := DBID(2)
		if k.kind == HistRegion {
			id = HistOwner
		}
		if _, ok := g.Region(id, k.kind); !ok {
			t.Errorf("region kind %d missing from the restored image", k.kind)
		}
	}
	// The restored FTL keeps working: regions drop, space compacts, ids go on.
	g.DropRegion(2, BoundRegion)
	g.Compact()
	if m, err := g.CreateDB("gamma", smallLayout(1)); err != nil || m.ID != 4 {
		t.Fatalf("create on the restored FTL: %+v, %v", m, err)
	}
	if again, err := g.Snapshot(); err != nil || !checkInvariants(t, g) || len(again) == 0 {
		t.Fatalf("restored FTL unusable: %v", err)
	}
}

// rejected asserts Restore refuses a damaged image with a typed error.
func rejected(t *testing.T, img []byte, what string, at int) {
	t.Helper()
	f, err := Restore(img)
	if err == nil || f != nil {
		t.Fatalf("%s %d accepted", what, at)
	}
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
		t.Fatalf("%s %d: untyped error %v", what, at, err)
	}
}

// TestRestoreRejectsEveryFlipAndTruncation: every single-bit flip and every
// proper prefix of the four-region image is a typed error — never a panic,
// never an FTL.
func TestRestoreRejectsEveryFlipAndTruncation(t *testing.T) {
	img := fourRegionImage(t)
	for i := range img {
		for bit := 0; bit < 8; bit++ {
			img[i] ^= 1 << bit
			rejected(t, img, "bit flip at bit", i*8+bit)
			img[i] ^= 1 << bit
		}
	}
	for cut := 0; cut < len(img); cut++ {
		rejected(t, img[:cut], "truncation to", cut)
	}
	if _, err := Restore(img); err != nil {
		t.Fatalf("the undamaged image no longer restores: %v", err)
	}
}

func TestRestoreErrorsAreTyped(t *testing.T) {
	img := fourRegionImage(t)
	img[4]++ // a newer format version, otherwise intact
	if _, err := Restore(img); !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
		t.Errorf("future version: %v, want ErrVersion only", err)
	}
	img[4]--
	img[len(img)-1] ^= 0x80
	if _, err := Restore(img); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad trailer: %v, want ErrCorrupt", err)
	}
}

// reseal recomputes the trailer over a (mutated) body, so structural
// validation is reached instead of the checksum stopping everything.
func reseal(img []byte) []byte {
	if len(img) < 8 {
		return img
	}
	body := img[:len(img)-8]
	return le.AppendUint64(append([]byte(nil), body...), imageSum(body))
}

// TestRestoreValidatesRegionRecords is the regression for unvalidated bound
// and int8 records: with the checksum made good again, a region whose start
// block, size, owner or shape was tampered with must still be refused (it
// used to restore and then index blockOwner out of range on the next drop).
func TestRestoreValidatesRegionRecords(t *testing.T) {
	img := fourRegionImage(t)
	accepted := 0
	for i := 8; i < len(img)-8; i++ {
		for _, v := range []byte{0x00, 0x01, 0x40, 0xFF} {
			if img[i] == v {
				continue
			}
			old := img[i]
			img[i] = v
			f, err := Restore(reseal(img))
			img[i] = old
			if err != nil {
				continue
			}
			accepted++
			if !checkInvariants(t, f) {
				t.Fatalf("byte %d = %#x restores an FTL that violates invariants", i, v)
			}
			exercise(f)
		}
	}
	// Wear counters, names and free-form parameters are legitimately free.
	t.Logf("%d resealed single-byte edits accepted, all consistent", accepted)
}

// exercise drives every mutating op over a restored FTL; it must not panic.
func exercise(f *FTL) {
	for _, m := range append(f.DBs(), &f.self) {
		for _, r := range m.held() {
			f.SetRegion(m.ID, m.Layout.Geom, *r)
			f.DropRegion(m.ID, r.Kind)
		}
		f.AppendDB(m.ID, 1)
	}
	f.Compact()
	f.CreateDB("x", smallLayout(1))
	for _, m := range f.DBs() {
		f.DeleteDB(m.ID)
	}
}

func FuzzRestore(f *testing.F) {
	img := fourRegionImage(f)
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			g, err := Restore(in)
			if err != nil {
				if g != nil || (!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion)) {
					t.Fatalf("untyped error or FTL alongside one: %v", err)
				}
				continue
			}
			if !checkInvariants(t, g) {
				t.Fatal("accepted image violates invariants")
			}
			exercise(g)
		}
	})
}
