// Package ssd assembles the simulated solid-state drive: the flash array,
// the block-level FTL, controller DRAM, the embedded cores, and the external
// (PCIe) interface (§2.2). DeepStore's accelerators attach to this device at
// the SSD, channel, or chip level (Fig. 3).
package ssd

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config describes the device. Defaults follow §6.1: a 1 TB, 32-channel SSD
// with 3.2 GB/s measured external bandwidth, 20 GB/s controller DRAM, and a
// 55 W power budget left for in-storage accelerators under the 75 W PCIe cap.
type Config struct {
	Geometry flash.Geometry
	Timing   flash.Timing

	// DRAMBandwidth is the controller DRAM bandwidth in bytes/s (15–26 GB/s
	// in modern controllers; 20 GB/s in the §4.5 exploration).
	DRAMBandwidth float64
	// DRAMBytes is the controller DRAM capacity (a few GB).
	DRAMBytes int64
	// ExternalBandwidth is the measured host interface bandwidth in
	// bytes/s (3.2 GB/s for the Intel DC P4500).
	ExternalBandwidth float64

	// EmbeddedCores and CoreFreqHz describe the controller CPUs that run
	// the FTL and the DeepStore query engine.
	EmbeddedCores int
	CoreFreqHz    float64

	// BasePowerW is drawn by the stock SSD at peak (~20 W, §4.5);
	// AccelPowerBudgetW is what remains for accelerators (55 W).
	BasePowerW        float64
	AccelPowerBudgetW float64

	// SharedScratchpadBytes is the SSD-level 8 MB scratchpad that also
	// serves as the channel-level accelerators' second-level memory (§4.5).
	SharedScratchpadBytes int64
	// SharedScratchpadBandwidth is the broadcast bandwidth of that L2 to
	// the channel-level accelerators in bytes/s.
	SharedScratchpadBandwidth float64

	// FlashFaults optionally enables the deterministic flash read-error /
	// read-retry model; the zero value injects nothing and leaves the
	// device's timing bit-identical to an unfaulted run.
	FlashFaults FlashFaultConfig
}

// FlashFaultConfig seeds the device's flash read-error model. Retries charge
// extra array-read time to the simulated clock (see flash.ReadFaults).
type FlashFaultConfig struct {
	// Seed roots the device's fault-injection stream.
	Seed int64
	// ReadErrorRate is the per-sense failure probability in [0, 1).
	ReadErrorRate float64
	// MaxRetries bounds re-senses per read (0 = flash.DefaultReadRetries).
	MaxRetries int
	// RetryLatency is the extra plane-busy time per retry (0 = the
	// array-read latency).
	RetryLatency sim.Duration
}

// DefaultConfig returns the §6.1 evaluation device.
func DefaultConfig() Config {
	return Config{
		Geometry:                  flash.DefaultGeometry(),
		Timing:                    flash.DefaultTiming(),
		DRAMBandwidth:             20e9,
		DRAMBytes:                 4 << 30,
		ExternalBandwidth:         3.2e9,
		EmbeddedCores:             8,
		CoreFreqHz:                1.6e9,
		BasePowerW:                20,
		AccelPowerBudgetW:         55,
		SharedScratchpadBytes:     8 << 20,
		SharedScratchpadBandwidth: 64e9,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.DRAMBandwidth <= 0 || c.ExternalBandwidth <= 0 || c.SharedScratchpadBandwidth <= 0 {
		return fmt.Errorf("ssd: non-positive bandwidth in config")
	}
	if c.DRAMBytes <= 0 || c.SharedScratchpadBytes <= 0 {
		return fmt.Errorf("ssd: non-positive memory size in config")
	}
	if c.EmbeddedCores <= 0 || c.CoreFreqHz <= 0 {
		return fmt.Errorf("ssd: invalid embedded cores")
	}
	if c.BasePowerW < 0 || c.AccelPowerBudgetW <= 0 {
		return fmt.Errorf("ssd: invalid power budget")
	}
	if f := c.FlashFaults; f.ReadErrorRate < 0 || f.ReadErrorRate >= 1 ||
		f.MaxRetries < 0 || f.RetryLatency < 0 {
		return fmt.Errorf("ssd: invalid flash fault config %+v", c.FlashFaults)
	}
	return nil
}

// Device is a simulated SSD instance bound to a sim engine.
type Device struct {
	Engine *sim.Engine
	Config Config
	Flash  *flash.Array
	FTL    *ftl.FTL

	// DRAM is the controller DRAM interface; weight streaming, result
	// staging, and external transfers all cross it.
	DRAM *sim.Link
	// External is the host interface (PCIe).
	External *sim.Link
	// SharedSpad is the SSD-level scratchpad's broadcast port serving the
	// channel-level accelerators as an L2 (§4.5).
	SharedSpad *sim.Link

	// reg and tracer are the observability sinks attached by the engine that
	// owns the device (AttachObs); both are nil-safe no-ops until attached.
	reg    *obs.Registry
	tracer *obs.Tracer
}

// AttachObs installs the metrics registry and span tracer on the device and
// its flash array, so page reads and host streams land in the owning engine's
// trace. Call before issuing I/O; attaching is not synchronized with it.
func (d *Device) AttachObs(reg *obs.Registry, tr *obs.Tracer) {
	d.reg = reg
	d.tracer = tr
	d.Flash.SetTracer(tr)
}

// New builds a device on the engine.
func New(e *sim.Engine, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	arr, err := flash.NewArray(e, cfg.Geometry, cfg.Timing)
	if err != nil {
		return nil, err
	}
	if ff := cfg.FlashFaults; ff.ReadErrorRate > 0 {
		err := arr.SetReadFaults(flash.ReadFaults{
			ErrorRate:    ff.ReadErrorRate,
			MaxRetries:   ff.MaxRetries,
			RetryLatency: ff.RetryLatency,
			Inj:          fault.New(ff.Seed).Fork("flash"),
		})
		if err != nil {
			return nil, err
		}
	}
	return &Device{
		Engine:     e,
		Config:     cfg,
		Flash:      arr,
		FTL:        ftl.NewFTL(cfg.Geometry.BlocksPerPlane),
		DRAM:       sim.NewLink(e, "ssd-dram", cfg.DRAMBandwidth),
		External:   sim.NewLink(e, "ssd-external", cfg.ExternalBandwidth),
		SharedSpad: sim.NewLink(e, "ssd-l2-spad", cfg.SharedScratchpadBandwidth),
	}, nil
}

// CreateDB allocates and registers a feature database striped across the
// device, charging any relocation that made room (settle). The caller charges
// the pages it writes with a Walk.
func (d *Device) CreateDB(name string, featureBytes, features int64) (*ftl.DBMeta, error) {
	defer d.settle()
	return d.FTL.CreateDB(name, ftl.DBLayout{Geom: d.Config.Geometry, FeatureBytes: featureBytes, Features: features})
}

// PlaceRegion places owner id's derived table (ftl.SetRegion: a stripe-bound
// table, an int8 table or the query-history image), charges any relocation
// that made room, and programs every page of it — or, when the region stayed
// in place and dirty is not nil, the within-channel pages [p0, p1) that dirty
// gives. The contents are produced inside the controller, so each page
// crosses controller DRAM and is then programmed (ssd_table_pages/bytes, a
// program_table span); the engine runs to completion.
func (d *Device) PlaceRegion(id ftl.DBID, r ftl.Region, dirty func(table ftl.DBLayout, ch int) (p0, p1 int64)) error {
	table, fresh, err := d.FTL.SetRegion(id, d.Config.Geometry, r)
	d.settle()
	if err != nil {
		return err
	}
	pages := table.ChannelSpan
	if !fresh && dirty != nil {
		pages = func(ch int) (int64, int64) { return dirty(table, ch) }
	}
	d.Walk(Walk{Layout: table, Pages: pages, Hops: []Hop{d.HopDRAM, d.HopProgram},
		Depth: IssueAll, Prefix: "ssd_table", Span: obs.SpanProgramTable}, nil)
	d.Engine.Run()
	return nil
}

// DeleteDB erases and frees a database's block columns.
func (d *Device) DeleteDB(id ftl.DBID) error { defer d.settle(); return d.FTL.DeleteDB(id) }

// Compact compacts on demand, charged like an allocation's compaction, and
// returns the block columns moved.
func (d *Device) Compact() int { defer d.settle(); return d.FTL.Compact() }

// settle charges the extents the FTL's last op moved, each one walk from its
// old columns through controller DRAM to its new ones (ssd_gc_pages/bytes, a
// gc span) that the op needing the space waits for, and refreshes the
// free-space gauges.
func (d *Device) settle() {
	moves := d.FTL.TakeMoves()
	for _, m := range moves {
		shift := m.From - m.Table.StartBlock
		read := func(a flash.PageAddr, next func()) { a.Block += shift; d.HopFlashRead(a, next) }
		d.Walk(Walk{Layout: m.Table, Pages: m.Table.ChannelSpan, Hops: []Hop{read, d.HopDRAM, d.HopProgram},
			Depth: IssueAll, Prefix: "ssd_gc", Span: obs.SpanGC}, nil)
	}
	if len(moves) > 0 {
		d.Engine.Run()
	}
	d.reg.Gauge("ssd_fragmentation").Set(d.FTL.Fragmentation())
	d.reg.Gauge("ssd_largest_free_run").Set(float64(d.FTL.LargestFreeRun()))
	d.reg.Gauge("ssd_wear_skew").Set(float64(d.FTL.MaxWearSkew()))
}

// StreamStats reports what a Walk moved.
type StreamStats struct {
	Pages, Bytes      int64
	Started, Finished sim.Time
}

// Duration returns the walk's elapsed virtual time.
func (s StreamStats) Duration() sim.Duration { return sim.Duration(s.Finished - s.Started) }

// A Hop is one leg of a page's trip through the device: it moves the page at
// addr and calls next once the page is across. The device's own hops are a
// plane read with its channel-bus transfer, a controller-DRAM crossing, an
// external-link crossing, and a channel-bus transfer with its plane program.
type Hop func(addr flash.PageAddr, next func())

func (d *Device) HopFlashRead(a flash.PageAddr, next func()) { d.Flash.ReadPage(a, next) }
func (d *Device) HopDRAM(_ flash.PageAddr, next func()) {
	d.DRAM.Transfer(d.Config.Geometry.PageBytes, next)
}
func (d *Device) HopExternal(_ flash.PageAddr, next func()) {
	d.External.Transfer(d.Config.Geometry.PageBytes, next)
}
func (d *Device) HopProgram(a flash.PageAddr, next func()) { d.Flash.ProgramPage(a, next) }

// The in-flight depths of a Walk: a read keeps StreamWindow pages per
// channel in flight, enough to cover the array-read latency; a write issues
// every page at once and queues on the device's links and planes.
const (
	StreamWindow = 8
	IssueAll     = math.MaxInt64
)

// A Walk is one pass of pages through the device: for every channel of
// Layout, the within-channel pages [p0, p1) that Pages gives, each crossing
// Hops in order (a page enters a hop only when it has left the one before),
// with at most Depth pages per channel in flight. Every page the device
// moves, reads and programs alike, moves in a Walk.
type Walk struct {
	Layout ftl.DBLayout
	Pages  func(ch int) (p0, p1 int64)
	Hops   []Hop
	Depth  int64
	// Prefix names the counters <Prefix>_pages and <Prefix>_bytes the walk
	// adds its totals to, and Span the span it records.
	Prefix, Span string
}

// Walk issues the walk. When its last page leaves the last hop it adds the
// totals to the counters, records the span and calls done (nil: none); the
// caller runs the engine.
func (d *Device) Walk(w Walk, done func(StreamStats)) {
	stats := StreamStats{Started: d.Engine.Now()}
	finish := func() {
		stats.Finished = d.Engine.Now()
		d.reg.Counter(w.Prefix + "_pages").Add(stats.Pages)
		d.reg.Counter(w.Prefix + "_bytes").Add(stats.Bytes)
		d.Flash.FlushSpans() // the walk's page reads precede its span
		d.tracer.Add(obs.Span{Name: w.Span, Cat: "ssd", Start: stats.Started, Dur: stats.Duration(),
			Args: map[string]string{"pages": strconv.FormatInt(stats.Pages, 10)}})
		if done != nil {
			done(stats)
		}
	}
	remainingChannels := 0
	for ch := 0; ch < w.Layout.Geom.Channels; ch++ {
		p0, p1 := w.Pages(ch)
		pages := p1 - p0
		if pages <= 0 {
			continue
		}
		remainingChannels++
		stats.Pages += pages
		stats.Bytes += pages * w.Layout.Geom.PageBytes

		var issued, inflight, completed int64
		var issue func()
		landed := func() {
			if inflight, completed = inflight-1, completed+1; completed < pages {
				issue()
			} else if remainingChannels--; remainingChannels == 0 {
				finish()
			}
		}
		issue = func() {
			for inflight < w.Depth && issued < pages {
				addr := w.Layout.ChannelPageAddr(ch, p0+issued)
				issued++
				inflight++
				cross(w.Hops, addr, landed)
			}
		}
		issue()
	}
	if remainingChannels == 0 {
		finish()
	}
}

// cross moves the page at addr over hops in order and calls done after the
// last.
func cross(hops []Hop, addr flash.PageAddr, done func()) {
	if len(hops) == 0 {
		done()
		return
	}
	hops[0](addr, func() { cross(hops[1:], addr, done) })
}

// hostRead is the read walk to the host: plane read → channel bus → DRAM →
// external link, StreamWindow pages in flight per channel.
func (d *Device) hostRead(layout ftl.DBLayout, pages func(ch int) (int64, int64), prefix, span string) Walk {
	return Walk{Layout: layout, Pages: pages, Hops: []Hop{d.HopFlashRead, d.HopDRAM, d.HopExternal},
		Depth: StreamWindow, Prefix: prefix, Span: span}
}

// StreamToHost DMAs the first maxPagesPerChannel pages of every channel of
// the database (every page when it is 0) to the host — the baseline's
// SSD-to-host read path — and records them under ssd_stream_pages/bytes and a
// stream_to_host span. done receives the stream statistics.
//
// The external link is the roofline: 32 channels deliver 25.6 GB/s
// internally but the PCIe interface caps delivery at 3.2 GB/s (§2.2).
func (d *Device) StreamToHost(meta *ftl.DBMeta, maxPagesPerChannel int64, done func(StreamStats)) {
	layout := meta.Layout
	d.Walk(d.hostRead(layout, func(ch int) (int64, int64) {
		pages := layout.ChannelPages(ch)
		if maxPagesPerChannel > 0 {
			pages = min(pages, maxPagesPerChannel)
		}
		return 0, pages
	}, "ssd_stream", obs.SpanStream), done)
}

// StreamRange DMAs the physical pages holding features [start, end) of the
// database to the host — readDB, and the migration read-out of an online
// shard rebalance — and records them under prefix_pages/bytes and a span
// named span. done (nil: none) receives the stream statistics.
func (d *Device) StreamRange(meta *ftl.DBMeta, start, end int64, prefix, span string, done func(StreamStats)) {
	layout := meta.Layout
	d.Walk(d.hostRead(layout, func(ch int) (int64, int64) {
		return layout.ChannelRangePages(ch, start, end)
	}, prefix, span), done)
}

// PersistMetadata snapshots the FTL's durable state and programs it into the
// reserved metadata block column (§4.4: database metadata "is persisted in a
// reserved flash block"). It returns the image that a power-cycled device
// restores from.
func (d *Device) PersistMetadata() ([]byte, error) {
	img, err := d.FTL.Snapshot()
	if err != nil {
		return nil, err
	}
	// Erase the reserved block of plane (0, 0, 0), then program the image
	// into it through DRAM, ⌈len/page⌉ pages: a one-plane layout of one-byte
	// entries. Embedded query-history bytes do not count against the
	// reserved block: they already live (and were charged) in the history's
	// own block columns via PlaceRegion; the snapshot merely carries them as
	// the restore channel.
	geom := d.Config.Geometry
	block := ftl.DBLayout{Geom: geom, FeatureBytes: 1, Features: int64(len(img))}
	block.Geom.Channels, block.Geom.ChipsPerChannel, block.Geom.PlanesPerChip = 1, 1, 1
	if hist, ok := d.FTL.Region(ftl.HistOwner, ftl.HistRegion); ok {
		block.Features -= int64(len(hist.Payload))
	}
	if block.ChannelPages(0) > int64(geom.PagesPerBlock) {
		return nil, fmt.Errorf("ssd: metadata image %d bytes exceeds the reserved block", len(img))
	}
	d.Flash.EraseBlock(flash.PageAddr{}, func() {
		d.Walk(Walk{Layout: block, Pages: block.ChannelSpan, Hops: []Hop{d.HopDRAM, d.HopProgram},
			Depth: IssueAll, Prefix: "ssd_meta", Span: obs.SpanPersistMeta}, nil)
	})
	d.Engine.Run()
	return img, nil
}

// Restore builds a device whose FTL comes from a PersistMetadata image — the
// §4.4 power-cycle path. The image's geometry must match the configuration.
func Restore(e *sim.Engine, cfg Config, img []byte) (*Device, error) {
	d, err := New(e, cfg)
	if err != nil {
		return nil, err
	}
	restored, err := ftl.Restore(img)
	if err != nil {
		return nil, err
	}
	var geoms []flash.Geometry // of every striped object in the image
	for _, m := range restored.DBs() {
		geoms = append(geoms, m.Layout.Geom)
	}
	if hist, ok := restored.HistTable(); ok {
		geoms = append(geoms, hist.Geom)
	}
	for _, g := range geoms {
		if g != cfg.Geometry {
			return nil, fmt.Errorf("ssd: snapshot geometry %+v does not match device %+v", g, cfg.Geometry)
		}
	}
	d.FTL = restored
	return d, nil
}
