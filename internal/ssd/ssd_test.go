package ssd

import (
	"math"
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.ExternalBandwidth != 3.2e9 {
		t.Errorf("external bandwidth = %v, want 3.2e9 (P4500 measured)", cfg.ExternalBandwidth)
	}
	if cfg.AccelPowerBudgetW != 55 {
		t.Errorf("accel budget = %v W, want 55 (75 W PCIe − 20 W base)", cfg.AccelPowerBudgetW)
	}
	if cfg.SharedScratchpadBytes != 8<<20 {
		t.Errorf("L2 scratchpad = %d, want 8 MB", cfg.SharedScratchpadBytes)
	}
}

func TestConfigValidateCatchesErrors(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.DRAMBandwidth = 0 },
		func(c *Config) { c.ExternalBandwidth = -1 },
		func(c *Config) { c.DRAMBytes = 0 },
		func(c *Config) { c.EmbeddedCores = 0 },
		func(c *Config) { c.AccelPowerBudgetW = 0 },
		func(c *Config) { c.Geometry.Channels = 0 },
		func(c *Config) { c.Timing.ReadLatency = 0 },
	}
	for i, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mod %d: invalid config accepted", i)
		}
	}
}

func TestNewDevice(t *testing.T) {
	e := sim.NewEngine()
	d, err := New(e, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.InternalBandwidth() != 25.6e9 {
		t.Errorf("internal bandwidth = %v, want 25.6e9", d.InternalBandwidth())
	}
}

func TestCreateDB(t *testing.T) {
	e := sim.NewEngine()
	d, _ := New(e, DefaultConfig())
	meta, err := d.CreateDB("tir", 2048, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Layout.FeatureBytes != 2048 || meta.Layout.Features != 1<<20 {
		t.Errorf("layout = %+v", meta.Layout)
	}
	if _, ok := d.FTL.Lookup(meta.ID); !ok {
		t.Error("created DB not registered")
	}
}

// TestStreamToHostExternalBound checks the §2.2/§3 property that drives the
// whole paper: external streaming is limited by the PCIe interface, far below
// the internal bandwidth.
func TestStreamToHostExternalBound(t *testing.T) {
	e := sim.NewEngine()
	d, _ := New(e, DefaultConfig())
	// 16 KB features, one per page: 32 K pages = 512 MB.
	meta, err := d.CreateDB("estp", 16<<10, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	var got StreamStats
	d.StreamToHost(meta, 0, func(s StreamStats) { got = s })
	e.Run()
	if got.Pages != 32<<10 {
		t.Fatalf("streamed %d pages, want %d", got.Pages, 32<<10)
	}
	secs := got.Duration().Seconds()
	ideal := float64(got.Bytes) / 3.2e9
	if secs < ideal {
		t.Errorf("stream faster than PCIe: %.4fs < %.4fs", secs, ideal)
	}
	if secs > ideal*1.2 {
		t.Errorf("stream not PCIe-bound: %.4fs vs ideal %.4fs", secs, ideal)
	}
	// Effective bandwidth must be far below internal bandwidth.
	eff := float64(got.Bytes) / secs
	if eff > d.InternalBandwidth()/4 {
		t.Errorf("external eff %.2e too close to internal %.2e", eff, d.InternalBandwidth())
	}
}

func TestStreamToHostWindowed(t *testing.T) {
	e := sim.NewEngine()
	d, _ := New(e, DefaultConfig())
	meta, err := d.CreateDB("mir", 2048, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var got StreamStats
	d.StreamToHost(meta, 10, func(s StreamStats) { got = s })
	e.Run()
	if got.Pages != 10*32 {
		t.Errorf("windowed stream read %d pages, want 320", got.Pages)
	}
}

func TestStreamToHostEmptyDB(t *testing.T) {
	e := sim.NewEngine()
	d, _ := New(e, DefaultConfig())
	meta, err := d.CreateDB("empty", 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	d.StreamToHost(meta, 0, func(s StreamStats) {
		called = true
		if s.Pages != 0 || s.Duration() != 0 {
			t.Errorf("empty stream stats = %+v", s)
		}
	})
	e.Run()
	if !called {
		t.Error("done not called for empty stream")
	}
}

// TestStreamScalesWithFewerChannels: fewer channels should not change the
// external-bound stream time materially (PCIe still the bottleneck), until
// internal bandwidth drops below external (Fig. 10a's flat region).
func TestStreamFlatAcrossChannelCounts(t *testing.T) {
	timeFor := func(channels int) float64 {
		e := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Geometry.Channels = channels
		d, err := New(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := d.CreateDB("x", 16<<10, 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		var got StreamStats
		d.StreamToHost(meta, 0, func(s StreamStats) { got = s })
		e.Run()
		return got.Duration().Seconds()
	}
	t8, t32 := timeFor(8), timeFor(32)
	if math.Abs(t8-t32)/t32 > 0.10 {
		t.Errorf("external stream time varies with channels: 8ch=%.4fs 32ch=%.4fs", t8, t32)
	}
}

func TestStreamRespectsFlashGeometry(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Geometry = flash.Geometry{Channels: 4, ChipsPerChannel: 2, PlanesPerChip: 2,
		BlocksPerPlane: 8, PagesPerBlock: 16, PageBytes: 16 << 10}
	d, err := New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := d.CreateDB("tiny", 16<<10, 64)
	if err != nil {
		t.Fatal(err)
	}
	var got StreamStats
	d.StreamToHost(meta, 0, func(s StreamStats) { got = s })
	e.Run()
	if got.Pages != 64 {
		t.Errorf("pages = %d, want 64", got.Pages)
	}
	if reads := d.Flash.Stats().PageReads; reads != 64 {
		t.Errorf("flash reads = %d, want 64", reads)
	}
}

// TestStreamRangeOverWholeDB: a range covering every feature moves the same
// pages on the same clock as a full StreamToHost, and each records its pages
// and bytes under its own counters and its own span.
func TestStreamRangeOverWholeDB(t *testing.T) {
	run := func(read func(d *Device, meta *ftl.DBMeta, done func(StreamStats))) (StreamStats, obs.Snapshot, []obs.Span) {
		e := sim.NewEngine()
		d, _ := New(e, DefaultConfig())
		reg, tr := obs.NewRegistry(), obs.NewTracer(1<<12)
		d.AttachObs(reg, tr)
		// 1 000 features of 6 KB: two per 16 KB page, a ragged last page.
		meta, err := d.CreateDB("x", 6<<10, 1000)
		if err != nil {
			t.Fatal(err)
		}
		var got StreamStats
		read(d, meta, func(s StreamStats) { got = s })
		e.Run()
		var spans []obs.Span // the device's own, not the flash array's
		for _, sp := range tr.Spans() {
			if sp.Cat == "ssd" {
				spans = append(spans, sp)
			}
		}
		return got, reg.Snapshot(), spans
	}
	full, fullReg, fullSpans := run(func(d *Device, meta *ftl.DBMeta, done func(StreamStats)) {
		d.StreamToHost(meta, 0, done)
	})
	rng, rngReg, rngSpans := run(func(d *Device, meta *ftl.DBMeta, done func(StreamStats)) {
		d.StreamRange(meta, 0, meta.Layout.Features, done)
	})
	if full.Pages == 0 || rng != full {
		t.Fatalf("StreamRange over the whole DB = %+v, StreamToHost = %+v", rng, full)
	}
	for _, c := range []struct {
		reg    obs.Snapshot
		spans  []obs.Span
		prefix string
		span   string
	}{
		{fullReg, fullSpans, "ssd_stream", obs.SpanStream},
		{rngReg, rngSpans, "ssd_migrate", obs.SpanMigrateOut},
	} {
		if p, b := c.reg.Counters[c.prefix+"_pages"], c.reg.Counters[c.prefix+"_bytes"]; p != full.Pages || b != full.Bytes {
			t.Errorf("%s_pages/bytes = %d/%d, want %d/%d", c.prefix, p, b, full.Pages, full.Bytes)
		}
		if len(c.spans) != 1 || c.spans[0].Name != c.span || c.spans[0].Dur != full.Duration() {
			t.Errorf("spans %+v, want one %s of %v", c.spans, c.span, full.Duration())
		}
	}
}

// TestProgramQuantTable: programming the int8 table advances simulated time
// (DRAM crossing + page programs) and costs a quarter of the fp32 pages.
func TestProgramQuantTable(t *testing.T) {
	e := sim.NewEngine()
	d, _ := New(e, DefaultConfig())
	meta, err := d.CreateDB("tir", 2048, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	table, err := d.FTL.SetRegion(meta.ID, meta.Layout.Geom, ftl.Region{Kind: ftl.QuantRegion, EntryBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	start, programs := e.Now(), d.Flash.Stats().PagePrograms
	d.ProgramTable(table)
	if e.Now() == start {
		t.Error("quant table programming advanced no simulated time")
	}
	if got, ok := meta.QuantTable(); !ok || got != table {
		t.Fatalf("QuantTable %+v (%v) after Set, SetRegion returned %+v", got, ok, table)
	}
	if got := d.Flash.Stats().PagePrograms - programs; int64(got) != table.TotalPages() {
		t.Errorf("programmed %d pages, table holds %d", got, table.TotalPages())
	}
	var dataPages, quantPages int64
	for ch := 0; ch < meta.Layout.Geom.Channels; ch++ {
		dataPages += meta.Layout.ChannelPages(ch)
		quantPages += table.ChannelPages(ch)
	}
	if quantPages*4 > dataPages+int64(meta.Layout.Geom.Channels)*4 {
		t.Errorf("quant table spans %d pages vs %d fp32 pages; want ~1/4", quantPages, dataPages)
	}
}
