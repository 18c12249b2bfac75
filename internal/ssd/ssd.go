// Package ssd assembles the simulated solid-state drive: the flash array,
// the block-level FTL, controller DRAM, the embedded cores, and the external
// (PCIe) interface (§2.2). DeepStore's accelerators attach to this device at
// the SSD, channel, or chip level (Fig. 3).
package ssd

import (
	"fmt"
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
// device (the writeDB path). Write timing is not simulated page-by-page —
// intelligent-query workloads write once and query many times (§4.7.2) — but
// the capacity accounting is real.
func (d *Device) CreateDB(name string, featureBytes, features int64) (*ftl.DBMeta, error) {
	layout := ftl.DBLayout{
		Geom:         d.Config.Geometry,
		FeatureBytes: featureBytes,
		Features:     features,
	}
	return d.FTL.CreateDB(name, layout)
}

// StreamStats reports what an external streaming read did.
type StreamStats struct {
	Pages    int64
	Bytes    int64
	Started  sim.Time
	Finished sim.Time
}

// Duration returns the stream's elapsed virtual time.
func (s StreamStats) Duration() sim.Duration {
	return sim.Duration(s.Finished - s.Started)
}

// StreamToHost reads the first `pages` within-channel pages of every channel
// of the database and DMAs them to the host, modeling the baseline's
// SSD-to-host read path: plane read → channel bus → DRAM → external link.
// The per-channel prefetch window is 8 outstanding pages, enough to cover
// the array-read latency. done receives the stream statistics.
//
// The external link is the roofline: 32 channels deliver 25.6 GB/s
// internally but the PCIe interface caps delivery at 3.2 GB/s (§2.2).
func (d *Device) StreamToHost(meta *ftl.DBMeta, maxPagesPerChannel int64, done func(StreamStats)) {
	layout := meta.Layout
	stats := &StreamStats{Started: d.Engine.Now()}
	remainingChannels := 0

	inner := done
	done = func(s StreamStats) {
		d.reg.Counter("ssd_stream_pages").Add(s.Pages)
		d.reg.Counter("ssd_stream_bytes").Add(s.Bytes)
		d.tracer.Add(obs.Span{
			Name: obs.SpanStream, Cat: "ssd",
			Start: s.Started, Dur: s.Duration(),
			Args: map[string]string{"pages": strconv.FormatInt(s.Pages, 10)},
		})
		inner(s)
	}

	for ch := 0; ch < layout.Geom.Channels; ch++ {
		pages := layout.ChannelPages(ch)
		if maxPagesPerChannel > 0 && pages > maxPagesPerChannel {
			pages = maxPagesPerChannel
		}
		if pages == 0 {
			continue
		}
		remainingChannels++
		stats.Pages += pages
		stats.Bytes += pages * layout.Geom.PageBytes

		ch := ch
		var issued, completed int64
		var issue func()
		const window = 8
		var inflight int64
		issue = func() {
			for inflight < window && issued < pages {
				addr := layout.ChannelPageAddr(ch, issued)
				issued++
				inflight++
				d.Flash.ReadPage(addr, func() {
					// Page is in the controller: cross DRAM, then PCIe.
					d.DRAM.Transfer(layout.Geom.PageBytes, func() {
						d.External.Transfer(layout.Geom.PageBytes, func() {
							inflight--
							completed++
							if completed == pages {
								remainingChannels--
								if remainingChannels == 0 {
									stats.Finished = d.Engine.Now()
									done(*stats)
								}
								return
							}
							issue()
						})
					})
				})
			}
		}
		issue()
	}
	if remainingChannels == 0 {
		stats.Finished = d.Engine.Now()
		done(*stats)
	}
}

// StreamRange reads the physical pages holding features [start, end) of the
// database and DMAs them to the host — the migration read-out path of an
// online shard rebalance. Traffic follows the same plane read → channel bus
// → DRAM → external link pipeline as StreamToHost, with the same per-channel
// prefetch window, so migration time is charged to the simulated clock
// exactly like any other flash activity (holistic device timing, after
// SimpleSSD). done receives the stream statistics; the sweep is also
// recorded as a migrate_out span with ssd_migrate_* counters.
func (d *Device) StreamRange(meta *ftl.DBMeta, start, end int64, done func(StreamStats)) {
	layout := meta.Layout
	stats := &StreamStats{Started: d.Engine.Now()}
	remainingChannels := 0

	inner := done
	done = func(s StreamStats) {
		d.reg.Counter("ssd_migrate_pages").Add(s.Pages)
		d.reg.Counter("ssd_migrate_bytes").Add(s.Bytes)
		d.tracer.Add(obs.Span{
			Name: obs.SpanMigrateOut, Cat: "ssd",
			Start: s.Started, Dur: s.Duration(),
			Args: map[string]string{"pages": strconv.FormatInt(s.Pages, 10)},
		})
		if inner != nil {
			inner(s)
		}
	}

	for ch := 0; ch < layout.Geom.Channels; ch++ {
		p0, p1 := layout.ChannelRangePages(ch, start, end)
		pages := p1 - p0
		if pages == 0 {
			continue
		}
		remainingChannels++
		stats.Pages += pages
		stats.Bytes += pages * layout.Geom.PageBytes

		ch, p0 := ch, p0
		var issued, completed int64
		var issue func()
		const window = 8
		var inflight int64
		issue = func() {
			for inflight < window && issued < pages {
				addr := layout.ChannelPageAddr(ch, p0+issued)
				issued++
				inflight++
				d.Flash.ReadPage(addr, func() {
					d.DRAM.Transfer(layout.Geom.PageBytes, func() {
						d.External.Transfer(layout.Geom.PageBytes, func() {
							inflight--
							completed++
							if completed == pages {
								remainingChannels--
								if remainingChannels == 0 {
									stats.Finished = d.Engine.Now()
									done(*stats)
								}
								return
							}
							issue()
						})
					})
				})
			}
		}
		issue()
	}
	if remainingChannels == 0 {
		stats.Finished = d.Engine.Now()
		done(*stats)
	}
}

// ProgramTable charges the flash programming of a derived table — the
// layout ftl.SetRegion returned for a stripe-bound table, an int8 table or
// the query-history image. The contents are produced inside the controller,
// so each page crosses controller DRAM and is programmed; nothing crosses the
// external link. Runs the engine to completion, like the writeDB path it
// extends.
func (d *Device) ProgramTable(table ftl.DBLayout) {
	for ch := 0; ch < table.Geom.Channels; ch++ {
		pages := table.ChannelPages(ch)
		for p := int64(0); p < pages; p++ {
			addr := table.ChannelPageAddr(ch, p)
			d.DRAM.Transfer(table.Geom.PageBytes, func() {
				d.Flash.ProgramPage(addr, nil)
			})
		}
	}
	d.Engine.Run()
}

// InternalBandwidth returns the aggregate flash-channel bandwidth.
func (d *Device) InternalBandwidth() float64 { return d.Flash.InternalBandwidth() }

// PersistMetadata snapshots the FTL's durable state and programs it into the
// reserved metadata block column (§4.4: database metadata "is persisted in a
// reserved flash block"). It returns the image that a power-cycled device
// restores from.
func (d *Device) PersistMetadata() ([]byte, error) {
	img, err := d.FTL.Snapshot()
	if err != nil {
		return nil, err
	}
	// Program the image into block column 0 of channel 0: erase, then
	// program ⌈len/page⌉ pages. Embedded query-history bytes do not count
	// against the reserved block: they already live (and were charged) in
	// the history's own block columns via ProgramTable; the snapshot merely
	// carries them as the restore channel.
	geom := d.Config.Geometry
	metaBytes := int64(len(img))
	if hist, ok := d.FTL.Region(ftl.HistOwner, ftl.HistRegion); ok {
		metaBytes -= int64(len(hist.Payload))
	}
	pages := int((metaBytes + geom.PageBytes - 1) / geom.PageBytes)
	if pages > geom.PagesPerBlock {
		return nil, fmt.Errorf("ssd: metadata image %d bytes exceeds the reserved block", len(img))
	}
	addr := flash.PageAddr{Channel: 0, Chip: 0, Plane: 0, Block: 0}
	d.Flash.EraseBlock(addr, nil)
	for p := 0; p < pages; p++ {
		a := addr
		a.Page = p
		d.Flash.ProgramPage(a, nil)
	}
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
