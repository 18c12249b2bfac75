package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/topk"
	"repro/internal/workload"
)

// The placement suite runs the prune-test device (4 channels, one plane per
// channel, 8-dimension features) with 4-page blocks, so a block column holds
// 2 048 features and a test fragments a device of 11 to 23 allocatable
// columns in a handful of writes. A 3 000-feature database needs 2 columns, 11 000 need 6; 4 000
// need 2 for data, 3 for the stripe-bound table and 1 for the int8 table.

const placeTestMargin = 16

func placeTestOpts(blocks int, tables bool) Options {
	opts := pruneTestOpts(tables)
	opts.Device.Geometry.BlocksPerPlane = blocks
	opts.Device.Geometry.PagesPerBlock = 4
	if tables {
		opts.Quantized = true
		opts.RerankMargin = placeTestMargin
	}
	return opts
}

// bruteTopK is the oracle: every vector scored in fp32 into one queue, each
// entry's ObjectID read off the database's current layout.
func bruteTopK(ds *DeepStore, id ftl.DBID, net *nn.Network, vectors [][]float32, qfv []float32, k int) []topk.Entry {
	layout := ds.dbs[id].meta.Layout
	sc := net.Scorer()
	q := topk.New(k)
	for i, v := range vectors {
		q.Offer(topk.Entry{FeatureID: int64(i), Score: sc.Score(qfv, v),
			ObjectID: layout.ObjectID(int64(i))})
	}
	return q.Results()
}

// assertBrute queries every database in dbs and holds the answer to
// bruteTopK.
func assertBrute(t *testing.T, ds *DeepStore, model ModelID, net *nn.Network, dbs map[ftl.DBID][][]float32, qfv []float32, label string) {
	t.Helper()
	for id, vectors := range dbs {
		r := runQuery(t, ds, QuerySpec{QFV: qfv, K: pruneTestK, Model: model, DB: id})
		assertSameTopK(t, fmt.Sprintf("%s, db %d", label, id), r.TopK, bruteTopK(ds, id, net, vectors, qfv, pruneTestK))
	}
}

// columns is how many block columns a table of n entries of b bytes takes
// on the engine's device.
func columns(ds *DeepStore, b, n int64) int {
	return max(ftl.DBLayout{Geom: ds.dev.Config.Geometry, FeatureBytes: b, Features: n}.BlocksPerPlane(), 1)
}

// fragmentedEngine writes five 2-column databases on an 11-column device and
// deletes the first, third and fifth: 7 columns free, in runs of 2, 2 and 3.
func fragmentedEngine(t *testing.T) (*DeepStore, ModelID, *nn.Network, map[ftl.DBID][][]float32) {
	t.Helper()
	net := pruneTestNet()
	ds, err := New(placeTestOpts(12, false))
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	live := map[ftl.DBID][][]float32{}
	for i := 0; i < 5; i++ {
		vectors := clusteredVectors(3000, int64(i))
		id, err := ds.WriteDB(vectors)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := ds.DeleteDB(id); err != nil {
				t.Fatal(err)
			}
		} else {
			live[id] = vectors
		}
	}
	if free, run := ds.dev.FTL.FreeBlocks(), ds.dev.FTL.LargestFreeRun(); free != 7 || run != 3 {
		t.Fatalf("setup left %d free columns, largest run %d; want 7 and 3", free, run)
	}
	return ds, model, net, live
}

// TestFragmentedWriteDBCompacts: a WriteDB needing 6 columns while 7 are free
// in no run longer than 3 compacts and succeeds, and every database — the
// moved ones and the new one — answers as brute force does.
func TestFragmentedWriteDBCompacts(t *testing.T) {
	ds, model, net, live := fragmentedEngine(t)
	vectors := clusteredVectors(11000, 9)
	if need := columns(ds, 32, 11000); need != 6 {
		t.Fatalf("11 000 features take %d columns, want 6", need)
	}
	id, err := ds.WriteDB(vectors)
	if err != nil {
		t.Fatalf("fragmented WriteDB refused: %v", err)
	}
	live[id] = vectors
	if f := ds.MetricsSnapshot().Gauges["ssd_fragmentation"]; f != 0 {
		t.Errorf("ssd_fragmentation %v after a compacting write, want 0", f)
	}
	for i, q := range [][]float32{vectors[0], vectors[10999], clusteredVectors(1, 77)[0]} {
		assertBrute(t, ds, model, net, live, q, fmt.Sprintf("query %d", i))
	}
}

// TestFragmentedWriteKeepsDerivedTables: with Prune and two-pass Quantized
// on, a 4 000-feature WriteDB needs 2 + 3 + 1 columns; 8 are free in 2-column
// holes, so the bound table fits only after a compaction. Both tables must be
// placed, and the pruned two-pass scan must still answer exactly.
func TestFragmentedWriteKeepsDerivedTables(t *testing.T) {
	net := pruneTestNet()
	ds, err := New(placeTestOpts(16, true))
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	// Spec-only databases carry no tables: seven of 2 columns (32 one-page
	// features) and one of 1 fill the 15 columns; deleting four leaves
	// 2-column holes.
	var declared []ftl.DBID
	for i := 0; i < 8; i++ {
		features := int64(32)
		if i == 7 {
			features = 16
		}
		id, err := ds.DeclareDB(4096, features)
		if err != nil {
			t.Fatal(err)
		}
		declared = append(declared, id)
	}
	for i := 0; i < 8; i += 2 {
		if err := ds.DeleteDB(declared[i]); err != nil {
			t.Fatal(err)
		}
	}
	g := ds.MetricsSnapshot().Gauges
	if g["ssd_largest_free_run"] != 2 || g["ssd_fragmentation"] != 0.75 || g["ssd_wear_skew"] != 1 {
		t.Errorf("gauges after the deletes: %v", g)
	}
	vectors := clusteredVectors(4000, 5)
	layout := ftl.DBLayout{Geom: ds.dev.Config.Geometry, FeatureBytes: 32, Features: 4000}
	bound := columns(ds, boundEntryBytes(pruneTestDims), layout.TotalStripes(pruneTestSF))
	if data, quant := columns(ds, 32, 4000), columns(ds, pruneTestDims, 4000); data != 2 || bound != 3 || quant != 1 {
		t.Fatalf("tables take %d + %d + %d columns, want 2 + 3 + 1", data, bound, quant)
	}
	id, err := ds.WriteDB(vectors)
	if err != nil {
		t.Fatal(err)
	}
	st := ds.dbs[id]
	_, hasBound := st.meta.BoundTable()
	_, hasQuant := st.meta.QuantTable()
	if st.bounds == nil || st.quant == nil || !hasBound || !hasQuant {
		t.Fatalf("derived tables lost under fragmentation: bounds %v quant %v, regions %v %v",
			st.bounds != nil, st.quant != nil, hasBound, hasQuant)
	}
	if n := ds.MetricsSnapshot().Counters["core_table_place_failures"]; n != 0 {
		t.Errorf("core_table_place_failures = %d", n)
	}
	for i, q := range [][]float32{vectors[0], vectors[2222], vectors[3999]} {
		r := runQuery(t, ds, QuerySpec{QFV: q, K: pruneTestK, Model: model, DB: id})
		if !hasStage(r, obs.StageBoundCheck) || !hasStage(r, obs.StageRerankExact) {
			t.Fatalf("query %d: tier stages missing: %+v", i, r.Stages)
		}
		assertSameTopK(t, fmt.Sprintf("query %d", i), r.TopK, bruteTopK(ds, id, net, vectors, q, pruneTestK))
	}
}

// extents records the start block of every database's data and tables.
func extents(ds *DeepStore) map[string]ftl.DBLayout {
	out := map[string]ftl.DBLayout{}
	for _, m := range ds.dev.FTL.DBs() {
		out[fmt.Sprintf("%d/data", m.ID)] = m.Layout
		if b, ok := m.BoundTable(); ok {
			out[fmt.Sprintf("%d/bound", m.ID)] = b
		}
		if q, ok := m.QuantTable(); ok {
			out[fmt.Sprintf("%d/quant", m.ID)] = q
		}
	}
	return out
}

// TestRelocatingWriteDBChargesTheMove: the relocation is charged to the
// WriteDB that needed it. Its clock advances by at least a fresh device's
// WriteDB of the same database plus, on the channel with the most moved
// pages, one array read and one program per page (one plane per channel, so
// they serialize); ssd_gc_pages counts exactly the pages of the moved
// extents.
func TestRelocatingWriteDBChargesTheMove(t *testing.T) {
	ds, _, _, _ := fragmentedEngine(t)
	vectors := clusteredVectors(11000, 9)
	before := extents(ds)
	t0 := ds.Now()
	if _, err := ds.WriteDB(vectors); err != nil {
		t.Fatal(err)
	}
	took := ds.Now() - t0

	var pages int64
	perChannel := make([]int64, ds.dev.Config.Geometry.Channels)
	for name, was := range before {
		now := extents(ds)[name]
		if now.StartBlock == was.StartBlock {
			continue
		}
		pages += now.TotalPages()
		for ch := range perChannel {
			perChannel[ch] += now.ChannelPages(ch)
		}
	}
	if pages == 0 {
		t.Fatal("the write moved nothing")
	}
	snap := ds.MetricsSnapshot()
	if got := snap.Counters["ssd_gc_pages"]; got != pages {
		t.Errorf("ssd_gc_pages = %d, want the %d pages of the moved extents", got, pages)
	}

	fresh, err := New(placeTestOpts(12, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.WriteDB(vectors); err != nil {
		t.Fatal(err)
	}
	timing := ds.dev.Config.Timing
	floor := int64(fresh.Now()) + slices.Max(perChannel)*int64(timing.ReadLatency+timing.ProgramLatency)
	if int64(took) < floor {
		t.Errorf("relocating WriteDB took %d ps, want at least %d (write alone %d)", took, floor, fresh.Now())
	}
	var gcSpans int
	for _, s := range ds.Tracer().Spans() {
		if s.Name == obs.SpanGC {
			gcSpans++
		}
	}
	if gcSpans != 2 { // the two surviving databases
		t.Errorf("%d gc spans, want one per moved extent (2)", gcSpans)
	}
}

// TestRelocationKeepsCache: a cached answer names features, and a move of
// their pages changes no FeatureID, so a compaction keeps the query cache
// (core_qcache_clears stays 0): the repeated query still hits, with the
// features it was cached with, and names their pages after the move.
func TestRelocationKeepsCache(t *testing.T) {
	ds, err := New(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("TIR")
	app.SCN.InitRandom(1)
	model, err := ds.LoadModelNetwork(app.SCN)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetQC(perfectQCN(app.SCN.FeatureElems()), 1, 16, 0.2); err != nil {
		t.Fatal(err)
	}
	hole, err := ds.WriteDB(workload.NewFeatureDB(app, 40, 1).Vectors)
	if err != nil {
		t.Fatal(err)
	}
	id, err := ds.WriteDB(workload.NewFeatureDB(app, 40, 2).Vectors)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.NewFeatureDB(app, 1, 99).Vectors[0]
	spec := QuerySpec{QFV: q, K: 3, Model: model, DB: id}
	runQuery(t, ds, spec)
	before := runQuery(t, ds, spec)
	if !before.CacheHit {
		t.Fatal("repeat query missed; test setup wrong")
	}
	if err := ds.DeleteDB(hole); err != nil {
		t.Fatal(err)
	}
	if moved := ds.CompactFlash(); moved == 0 {
		t.Fatal("compaction moved nothing")
	}
	if n := ds.MetricsSnapshot().Counters["core_qcache_clears"]; n != 0 {
		t.Errorf("core_qcache_clears = %d, want 0", n)
	}
	layout := ds.dbs[id].meta.Layout
	r := runQuery(t, ds, spec)
	if !r.CacheHit || len(r.TopK) != len(before.TopK) {
		t.Fatalf("query after the move: hit %v with %d entries, want a hit with %d", r.CacheHit, len(r.TopK), len(before.TopK))
	}
	for i, e := range r.TopK {
		if e.FeatureID != before.TopK[i].FeatureID || e.ObjectID != layout.ObjectID(e.FeatureID) || e.ObjectID == before.TopK[i].ObjectID {
			t.Errorf("entry %d after the move: %+v; before it %+v, feature's page now %d", i, e, before.TopK[i], layout.ObjectID(e.FeatureID))
		}
	}
}

// TestReorgClearsCache: a reorganized database's cached answer names the old
// feature order, so ReorgDB clears the cache and the repeated query returns
// the exact answer over the new order.
func TestReorgClearsCache(t *testing.T) {
	ds, app, model, dbID := newEngine(t, 150)
	id := ftlID(dbID)
	if err := ds.SetQC(perfectQCN(app.SCN.FeatureElems()), 1, 16, 0.2); err != nil {
		t.Fatal(err)
	}
	q := workload.NewFeatureDB(app, 1, 99).Vectors[0]
	spec := QuerySpec{QFV: q, K: 3, Model: model, DB: id}
	runQuery(t, ds, spec)
	order := make([]int, 150)
	for i := range order {
		order[i] = 149 - i
	}
	if err := ds.ReorgDB(id, order); err != nil {
		t.Fatal(err)
	}
	reordered := workload.NewFeatureDB(app, 150, 2).Vectors
	slices.Reverse(reordered)
	r := runQuery(t, ds, spec)
	if r.CacheHit {
		t.Error("a query after ReorgDB hit the cache")
	}
	assertSameTopK(t, "after reorg", r.TopK, bruteTopK(ds, id, app.SCN, reordered, q, 3))
	if n := ds.MetricsSnapshot().Counters["core_qcache_clears"]; n != 1 {
		t.Errorf("core_qcache_clears = %d, want 1", n)
	}
}

// TestTablePlaceFailureCounted: on a device with room for a database's data
// but not its tables, WriteDB succeeds without them, counts each table it
// could not place, and still answers exactly (dense, fp32).
func TestTablePlaceFailureCounted(t *testing.T) {
	net := pruneTestNet()
	ds, err := New(placeTestOpts(4, true)) // 3 columns: data 2, bound 3, int8 1
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	vectors := clusteredVectors(4000, 5)
	id, err := ds.WriteDB(vectors)
	if err != nil {
		t.Fatal(err)
	}
	st := ds.dbs[id]
	if st.bounds != nil || st.quant == nil {
		t.Fatalf("bound table %v, int8 table %v: want only the int8 one", st.bounds != nil, st.quant != nil)
	}
	if n := ds.MetricsSnapshot().Counters["core_table_place_failures"]; n != 1 {
		t.Errorf("core_table_place_failures = %d, want 1", n)
	}
	assertBrute(t, ds, model, net, map[ftl.DBID][][]float32{id: vectors}, vectors[7], "full device")
}

// placementChurn drives random WriteDB / AppendDB / DeleteDB / CompactFlash
// ops, two bytes each (op, size), on a 23-column device with Prune and
// two-pass Quantized on. After every op: a WriteDB was refused only when its
// data needed more columns than were free, and placed both derived tables
// whenever all three fit; every live database answers as brute force does,
// ObjectIDs included; and the checkpoint image restores (Restore validates
// the FTL) and re-snapshots to the same bytes.
func placementChurn(t *testing.T, ops []byte) {
	net := pruneTestNet()
	ds, err := New(placeTestOpts(24, true))
	if err != nil {
		t.Fatal(err)
	}
	model, err := ds.LoadModelNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	live := map[ftl.DBID][][]float32{}
	pick := func(b byte) (ftl.DBID, bool) {
		ids := make([]ftl.DBID, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return 0, false
		}
		slices.Sort(ids)
		return ids[int(b)%len(ids)], true
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, size, seed := ops[i]%8, ops[i+1], int64(i)
		label := fmt.Sprintf("op %d (%d, %d)", i/2, op, size)
		switch op {
		case 0, 1, 2:
			n := 1 + int64(size)*int64(size)/10
			layout := ftl.DBLayout{Geom: ds.dev.Config.Geometry, FeatureBytes: 32, Features: n}
			data := columns(ds, 32, n)
			tables := columns(ds, boundEntryBytes(pruneTestDims), layout.TotalStripes(pruneTestSF)) + columns(ds, pruneTestDims, n)
			free := ds.dev.FTL.FreeBlocks()
			vectors := clusteredVectors(int(n), seed)
			id, err := ds.WriteDB(vectors)
			if err != nil {
				if free >= data {
					t.Fatalf("%s: WriteDB of %d columns refused with %d free: %v", label, data, free, err)
				}
				break
			}
			live[id] = vectors
			if st := ds.dbs[id]; free >= data+tables && (st.bounds == nil || st.quant == nil) {
				t.Fatalf("%s: %d + %d columns fit %d free, but a derived table is missing", label, data, tables, free)
			}
		case 3, 4:
			if id, ok := pick(size); ok {
				extra := clusteredVectors(1+int(size)*4, seed)
				if ds.AppendDB(id, extra) == nil {
					live[id] = append(live[id], extra...)
				}
			}
		case 5, 6:
			if id, ok := pick(size); ok {
				if err := ds.DeleteDB(id); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				delete(live, id)
			}
		case 7:
			ds.CompactFlash()
		}
		assertBrute(t, ds, model, net, live, clusteredVectors(1, seed+1)[0], label)
		img, err := ds.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", label, err)
		}
		restored, err := ftl.Restore(img)
		if err != nil {
			t.Fatalf("%s: checkpoint image rejected: %v", label, err)
		}
		if again, err := restored.Snapshot(); err != nil || !bytes.Equal(again, img) {
			t.Fatalf("%s: restored image re-snapshots differently (%v)", label, err)
		}
	}
}

// TestPlacementChurn runs placementChurn over seeded random op streams,
// chosen among the first thirty for fragmenting the device so that a write
// (seeds 6, 13, 21, 29) or a derived table (28) fits only after a compaction.
func TestPlacementChurn(t *testing.T) {
	for _, seed := range []int64{6, 13, 21, 28, 29} {
		ops := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(ops)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { placementChurn(t, ops) })
	}
}

// FuzzPlacementChurn runs placementChurn over op streams of up to 32 ops.
func FuzzPlacementChurn(f *testing.F) {
	f.Add([]byte{0, 120, 0, 200, 0, 60, 5, 0, 0, 250, 3, 9, 7, 1, 0, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		placementChurn(t, ops)
	})
}
