package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ftl"
	"repro/internal/sim"
)

// appendDims is the width of the vectors the write-path tests store: 512 B
// of fp32, 32 to a 16 KiB page, 128 B of int8 and a 1 040 B stripe bound.
const appendDims = 128

func appendVectors(n int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([][]float32, n)
	for i := range vs {
		vs[i] = make([]float32, appendDims)
		for j := range vs[i] {
			vs[i][j] = rng.Float32()*2 - 1
		}
	}
	return vs
}

// tablesOptions turns on both derived tables.
func tablesOptions() Options {
	opts := DefaultOptions()
	opts.Prune, opts.Quantized, opts.RerankMargin = true, true, 4
	return opts
}

// timed returns the simulated time op advances the engine's clock by.
func timed(t *testing.T, ds *DeepStore, op func() error) sim.Duration {
	t.Helper()
	start := ds.engine.Now()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	return sim.Duration(ds.engine.Now() - start)
}

// writeTime writes n features on a fresh engine and returns the engine, the
// database and the write's device time.
func writeTime(t *testing.T, opts Options, n int) (*DeepStore, ftl.DBID, sim.Duration) {
	t.Helper()
	ds, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var id ftl.DBID
	d := timed(t, ds, func() (err error) { id, err = ds.WriteDB(appendVectors(n, 1)); return })
	return ds, id, d
}

// TestWriteDBProgramsAfterTransfer: a page programs only once its transfer
// over the external link has landed, so writing P pages takes at least the P
// transfers back to back plus one page's channel-bus crossing and program.
// Issuing the programs beside the transfers (the page programming before its
// data arrived) finishes the write up to one program latency sooner.
func TestWriteDBProgramsAfterTransfer(t *testing.T) {
	for _, n := range []int{4096, 65536} {
		ds, id, took := writeTime(t, DefaultOptions(), n)
		meta, _ := ds.dev.FTL.Lookup(id)
		cfg, page := ds.dev.Config, meta.Layout.Geom.PageBytes
		pages := meta.Layout.TotalPages()
		floor := sim.Duration(pages)*ds.dev.External.TransferTime(page) +
			ds.dev.Flash.Bus(0).TransferTime(page) + cfg.Timing.ProgramLatency
		if took < floor {
			t.Errorf("%d features: WriteDB of %d pages took %v, below the chained floor %v", n, pages, took, floor)
		}
		snap := ds.MetricsSnapshot().Counters
		if snap["ssd_write_pages"] != pages || snap["flash_page_programs"] != pages {
			t.Errorf("%d features: ssd_write_pages %d, flash programs %d, want %d",
				n, snap["ssd_write_pages"], snap["flash_page_programs"], pages)
		}
	}
}

// TestReadDBChargesFlashRead: readDB senses the pages holding the range
// before they cross the external link.
func TestReadDBChargesFlashRead(t *testing.T) {
	ds, id, _ := writeTime(t, DefaultOptions(), 1000)
	const start, num = 100, 300
	took := timed(t, ds, func() error { _, err := ds.ReadDB(id, start, num); return err })
	meta, _ := ds.dev.FTL.Lookup(id)
	floor := ds.dev.Config.Timing.ReadLatency + ds.dev.External.TransferTime(num*meta.Layout.FeatureBytes)
	if took < floor {
		t.Errorf("ReadDB of %d features took %v, below one array read plus the transfer, %v", num, took, floor)
	}
	var pages int64
	for ch := 0; ch < meta.Layout.Geom.Channels; ch++ {
		p0, p1 := meta.Layout.ChannelRangePages(ch, start, start+num)
		pages += p1 - p0
	}
	snap := ds.MetricsSnapshot().Counters
	if snap["ssd_read_pages"] != pages || snap["flash_page_reads"] != pages {
		t.Errorf("ssd_read_pages %d, flash reads %d, want the range's %d pages",
			snap["ssd_read_pages"], snap["flash_page_reads"], pages)
	}
}

// TestAppendsKeepTablesInPlace: appends that fit the derived tables' block
// columns neither move nor erase them, so wear does not grow with appends.
func TestAppendsKeepTablesInPlace(t *testing.T) {
	ds, id, _ := writeTime(t, tablesOptions(), 1000)
	regions := func() []ftl.Region {
		var rs []ftl.Region
		for _, kind := range []ftl.RegionKind{ftl.BoundRegion, ftl.QuantRegion} {
			r, ok := ds.dev.FTL.Region(id, kind)
			if !ok {
				t.Fatalf("no region of kind %d", kind)
			}
			rs = append(rs, r)
		}
		return rs
	}
	before := regions()
	extra := appendVectors(100, 2)
	for i := range extra {
		if err := ds.AppendDB(id, extra[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fmt.Sprint(regions()), fmt.Sprint(before); got != want {
		t.Errorf("100 appends moved the tables: %s → %s", want, got)
	}
	// Every allocatable column starts unworn, so an erased table column
	// shows as skew.
	if skew := ds.dev.FTL.MaxWearSkew(); skew != 0 {
		t.Errorf("wear skew %d after appends that fit: the tables' columns were erased", skew)
	}
}

// TestAppendDBCostIsDelta: an append's device time depends on what it adds,
// not on the database it adds to, and matches the growth of a whole write.
// Each of the three walks an append makes (data, bounds, int8) may move one
// more page per channel than the growth (the channel's partly filled last
// page, reprogrammed), and pays once the latency of one page through every
// hop, which a whole write pays as well.
func TestAppendDBCostIsDelta(t *testing.T) {
	ds0, _, _ := writeTime(t, tablesOptions(), 1)
	cfg, page := ds0.dev.Config, ds0.dev.Config.Geometry.PageBytes
	chans, prog := sim.Duration(cfg.Geometry.Channels), cfg.Timing.ProgramLatency
	bus := ds0.dev.Flash.Bus(0).TransferTime(page)
	ext, dram := ds0.dev.External.TransferTime(page), ds0.dev.DRAM.TransferTime(page)
	perChannel := chans*ext + bus + 2*(chans*dram+bus) // data, then bounds and int8
	tail := ext + bus + prog + 2*(dram+bus+prog)
	for _, n := range []int{1, 200} {
		var first sim.Duration
		for _, N := range []int{1000, 65536} {
			ds, id, small := writeTime(t, tablesOptions(), N)
			took := timed(t, ds, func() error { return ds.AppendDB(id, appendVectors(n, 3)) })
			_, _, large := writeTime(t, tablesOptions(), N+n)
			if grew := large - small; took < grew-perChannel || took > grew+perChannel+tail {
				t.Errorf("N %d n %d: AppendDB took %v, WriteDB grew by %v", N, n, took, grew)
			}
			if first == 0 {
				first = took
			} else if d := took - first; d < -perChannel || d > perChannel {
				t.Errorf("n %d: AppendDB took %v at N %d and %v at N 1000 (±%v)", n, took, N, first, perChannel)
			}
		}
	}
}

// BenchmarkAppendDB: one small append to a pruned, quantized database costs
// the same host time at every database size.
func BenchmarkAppendDB(b *testing.B) {
	for _, N := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("N=%d", N), func(b *testing.B) {
			ds, err := New(tablesOptions())
			if err != nil {
				b.Fatal(err)
			}
			id, err := ds.WriteDB(appendVectors(N, 1))
			if err != nil {
				b.Fatal(err)
			}
			extra := appendVectors(b.N*4, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ds.AppendDB(id, extra[i*4:i*4+4]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
