// Package flash models the NAND flash subsystem of the simulated SSD:
// geometry (channels → chips → planes → blocks → pages), array read/program/
// erase timing, per-plane page buffers, and bandwidth-arbitrated channel
// buses (§2.2). The model is event-driven on the sim kernel, so concurrent
// reads contend for planes and channel buses exactly as in SSD-Sim.
package flash

import (
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Geometry describes the physical organization of the flash array.
// The evaluation defaults (§6.1) are 32 channels, 4 chips per channel,
// 8 planes per chip, 512 blocks per plane, 128 pages per block, 16 KB pages.
type Geometry struct {
	Channels        int
	ChipsPerChannel int
	PlanesPerChip   int
	BlocksPerPlane  int
	PagesPerBlock   int
	PageBytes       int64
}

// DefaultGeometry returns the §6.1 evaluation geometry.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:        32,
		ChipsPerChannel: 4,
		PlanesPerChip:   8,
		BlocksPerPlane:  512,
		PagesPerBlock:   128,
		PageBytes:       16 << 10,
	}
}

// Validate reports geometry errors.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.ChipsPerChannel <= 0 || g.PlanesPerChip <= 0 ||
		g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 || g.PageBytes <= 0 {
		return fmt.Errorf("flash: non-positive geometry field in %+v", g)
	}
	return nil
}

// Chips returns the total chip count.
func (g Geometry) Chips() int { return g.Channels * g.ChipsPerChannel }

// PageAddr is a physical page address.
type PageAddr struct {
	Channel, Chip, Plane, Block, Page int
}

// Valid reports whether the address is inside the geometry, which must pass
// Validate. A negative field converts to a huge uint, so one unsigned compare
// checks both ends.
func (g Geometry) Valid(a PageAddr) bool {
	return uint(a.Channel) < uint(g.Channels) && uint(a.Chip) < uint(g.ChipsPerChannel) &&
		uint(a.Plane) < uint(g.PlanesPerChip) && uint(a.Block) < uint(g.BlocksPerPlane) &&
		uint(a.Page) < uint(g.PagesPerBlock)
}

// Linear converts a page address to a dense index. The striping order is
// chosen for maximum parallelism on sequential access (§4.4: databases are
// striped across channels and chips): consecutive indices rotate across
// channels first, then chips, then planes, then advance pages within blocks.
func (g Geometry) Linear(a PageAddr) int64 {
	if !g.Valid(a) {
		panic(fmt.Sprintf("flash: address %+v outside geometry", a))
	}
	// Order (outer→inner): block, page, plane, chip, channel.
	idx := int64(a.Block)
	idx = idx*int64(g.PagesPerBlock) + int64(a.Page)
	idx = idx*int64(g.PlanesPerChip) + int64(a.Plane)
	idx = idx*int64(g.ChipsPerChannel) + int64(a.Chip)
	idx = idx*int64(g.Channels) + int64(a.Channel)
	return idx
}

// Timing holds the NAND operation latencies and channel bandwidth.
type Timing struct {
	// ReadLatency is the array read (cell → page buffer) time;
	// 53 µs in the §6.1 baseline, swept 7–212 µs in Fig. 9.
	ReadLatency sim.Duration
	// ProgramLatency is the page program time.
	ProgramLatency sim.Duration
	// EraseLatency is the block erase time.
	EraseLatency sim.Duration
	// ChannelBandwidth is the per-channel bus bandwidth in bytes/s
	// (800 MB/s in §6.1).
	ChannelBandwidth float64
}

// DefaultTiming returns the §6.1 evaluation timing.
func DefaultTiming() Timing {
	return Timing{
		ReadLatency:      53 * sim.Microsecond,
		ProgramLatency:   600 * sim.Microsecond,
		EraseLatency:     3 * sim.Millisecond,
		ChannelBandwidth: 800e6,
	}
}

// Validate reports timing errors.
func (t Timing) Validate() error {
	if t.ReadLatency <= 0 || t.ProgramLatency <= 0 || t.EraseLatency <= 0 {
		return fmt.Errorf("flash: non-positive latency in %+v", t)
	}
	if t.ChannelBandwidth <= 0 {
		return fmt.Errorf("flash: non-positive channel bandwidth")
	}
	return nil
}

// Stats aggregates flash activity for reporting and the energy model.
type Stats struct {
	PageReads    uint64
	PagePrograms uint64
	BlockErases  uint64
	BusBytes     uint64
	// ReadRetries counts re-sensed array reads under the fault model; each
	// retry held its plane for an extra retry latency on the simulated clock.
	ReadRetries uint64
	// ReadFailures counts reads whose retry budget was exhausted; the page
	// is still delivered (ECC/RAID recovery is assumed), but the failure is
	// surfaced here for reliability accounting.
	ReadFailures uint64
}

// ReadFaults configures the deterministic read-error / read-retry model of
// the array (real NAND re-senses a page at adjusted reference voltages when
// the first read fails ECC, charging one extra array-read time per retry).
// The zero value disables injection.
type ReadFaults struct {
	// ErrorRate is the per-attempt probability that a sense fails.
	ErrorRate float64
	// MaxRetries bounds the re-sense attempts after the first read
	// (0 = DefaultReadRetries when ErrorRate > 0).
	MaxRetries int
	// RetryLatency is the extra plane-busy time charged per retry
	// (0 = the array-read latency).
	RetryLatency sim.Duration
	// Inj supplies the seeded random stream; required when ErrorRate > 0.
	Inj *fault.Injector
}

// DefaultReadRetries is the read-retry budget when ReadFaults.MaxRetries
// is zero.
const DefaultReadRetries = 3

func (f ReadFaults) active() bool { return f.ErrorRate > 0 && f.Inj != nil }

func (f ReadFaults) maxRetries() int {
	if f.MaxRetries > 0 {
		return f.MaxRetries
	}
	return DefaultReadRetries
}

func (f ReadFaults) retryLatency(t Timing) sim.Duration {
	if f.RetryLatency > 0 {
		return f.RetryLatency
	}
	return t.ReadLatency
}

// Validate reports fault-model configuration errors.
func (f ReadFaults) Validate() error {
	if f.ErrorRate < 0 || f.ErrorRate >= 1 {
		return fmt.Errorf("flash: read-error rate %v outside [0, 1)", f.ErrorRate)
	}
	if f.ErrorRate > 0 && f.Inj == nil {
		return fmt.Errorf("flash: read faults enabled without an injector")
	}
	if f.MaxRetries < 0 || f.RetryLatency < 0 {
		return fmt.Errorf("flash: negative read-fault parameter")
	}
	return nil
}

// Array is the event-driven flash array model.
type Array struct {
	e      *sim.Engine
	geom   Geometry
	timing Timing

	// planes holds one server per plane (its page buffer), flat in
	// (channel, chip, plane) order, in one slab.
	planes []sim.Resource
	buses  []*sim.Link // one per channel

	faults ReadFaults
	stats  Stats

	// tracer receives one span per page read (issue → last byte delivered),
	// on the channel's track; nil (the default) traces nothing. The spans
	// wait in staged, bound for stagedTo, until FlushSpans.
	tracer   *obs.Tracer
	staged   []obs.Interval
	stagedTo *obs.Tracer

	// freeReads recycles per-read records, which are allocated readSlab at
	// a time: a scan keeps at most a prefetch window of reads in flight per
	// accelerator, so after the first window a page read allocates nothing.
	freeReads []*pageRead
}

// readSlab is how many read records the array allocates at once.
const readSlab = 64

// NewArray builds a flash array on the given engine.
func NewArray(e *sim.Engine, geom Geometry, timing Timing) (*Array, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	a := &Array{e: e, geom: geom, timing: timing}
	a.buses = make([]*sim.Link, geom.Channels)
	for ch := range a.buses {
		a.buses[ch] = sim.NewLink(e, "chan"+strconv.Itoa(ch)+"-bus", timing.ChannelBandwidth)
	}
	// A device names a thousand planes: the names are cut from one string.
	n := geom.Channels * geom.ChipsPerChannel * geom.PlanesPerChip
	ends := make([]int, 0, n)
	var buf []byte
	for ch := 0; ch < geom.Channels; ch++ {
		for cp := 0; cp < geom.ChipsPerChannel; cp++ {
			for pl := 0; pl < geom.PlanesPerChip; pl++ {
				buf = append(buf, "ch"...)
				buf = strconv.AppendInt(buf, int64(ch), 10)
				buf = append(buf, "-chip"...)
				buf = strconv.AppendInt(buf, int64(cp), 10)
				buf = append(buf, "-plane"...)
				buf = strconv.AppendInt(buf, int64(pl), 10)
				ends = append(ends, len(buf))
			}
		}
	}
	all, names, start := string(buf), make([]string, n), 0
	for i, end := range ends {
		names[i], start = all[start:end], end
	}
	a.planes = sim.NewResources(e, 1, names...)
	return a, nil
}

// Stats returns a snapshot of activity counters.
func (a *Array) Stats() Stats { return a.stats }

// SetReadFaults installs (or, with a zero value, removes) the read-error /
// read-retry model. Call before issuing reads; the schedule is deterministic
// in the injector seed because the event engine serializes draws.
func (a *Array) SetReadFaults(f ReadFaults) error {
	if err := f.Validate(); err != nil {
		return err
	}
	a.faults = f
	return nil
}

// senseFails draws whether a sense after try retries fails and counts a
// retry, reporting true, or past the budget a failure: the read completes
// anyway (recovery via ECC/parity is outside the timing model).
func (a *Array) senseFails(try int) bool {
	if !a.faults.Inj.Hit(a.faults.ErrorRate) {
		return false
	}
	if try < a.faults.maxRetries() {
		a.stats.ReadRetries++
		return true
	}
	a.stats.ReadFailures++
	return false
}

// ReadFaultsActive reports whether the read-fault model is drawing faults.
func (a *Array) ReadFaultsActive() bool { return a.faults.active() }

// SetTracer flushes the staged spans and installs the span sink for page
// reads.
func (a *Array) SetTracer(tr *obs.Tracer) {
	a.FlushSpans()
	a.tracer = tr
}

// spanBatch is how many page-read spans the array stages at most.
const spanBatch = 512

// FlushSpans hands the staged page-read spans to their tracer in finishing
// order. A walk calls it before adding its own span, a scan before it
// returns.
func (a *Array) FlushSpans() {
	a.stagedTo.AddIntervals(obs.SpanFlashRead, "flash", a.staged)
	a.staged = a.staged[:0]
}

// pageRead is one page read from issue to completion: queueing for the
// plane, the sense (including read-retry rounds), and the bus transfer when
// there is one. The record's one callback, step, is bound when the record
// is first used and reused with it; stage says what the next call does. So
// the chain schedules its events without building a closure per stage.
type pageRead struct {
	a     *Array
	plane *sim.Resource
	// bus is the channel bus the page crosses after the sense; nil for a
	// read that stops at the page buffer.
	bus     *sim.Link
	channel int
	start   sim.Time
	try     int
	stage   readStage
	// tracer is the span sink in force when the read was issued.
	tracer *obs.Tracer
	done   func()
	step   func()
}

// readStage is what a read's step does next.
type readStage uint8

const (
	awaitPlane readStage = iota // the plane is granted: start the sense
	awaitSense                  // a sense completed
	awaitBus                    // the last byte left the bus
)

func (a *Array) startRead(addr PageAddr, bus *sim.Link, done func()) {
	a.stats.PageReads++
	if len(a.freeReads) == 0 {
		slab := make([]pageRead, readSlab)
		for i := range slab {
			a.freeReads = append(a.freeReads, &slab[i])
		}
	}
	r := a.freeReads[len(a.freeReads)-1]
	a.freeReads = a.freeReads[:len(a.freeReads)-1]
	if r.step == nil {
		r.a, r.step = a, r.advance
	}
	r.plane, r.bus, r.channel, r.stage = a.plane(addr), bus, addr.Channel, awaitPlane
	r.start, r.try, r.tracer, r.done = a.e.Now(), 0, a.tracer, done
	r.plane.Acquire(r.step)
}

// advance runs the read's next stage.
func (r *pageRead) advance() {
	switch r.stage {
	case awaitPlane:
		// Start the array read (cell → page buffer) on the plane just
		// acquired.
		r.stage = awaitSense
		r.a.e.After(r.a.timing.ReadLatency, r.step)
	case awaitSense:
		r.sensed()
	default:
		r.finish()
	}
}

// sensed runs when a sense completes with the plane still held, charging
// read-retry rounds to the simulated clock when the fault model is enabled.
func (r *pageRead) sensed() {
	a := r.a
	if a.faults.active() && a.senseFails(r.try) {
		r.try++
		a.e.After(a.faults.retryLatency(a.timing), r.step)
		return
	}
	// The page buffer is free for the next array read as soon as the data
	// is handed to the channel transfer; SSDs overlap array reads with bus
	// transfers via the per-plane buffer.
	r.plane.Release()
	if r.bus == nil {
		r.finish()
		return
	}
	a.stats.BusBytes += uint64(a.geom.PageBytes)
	r.stage = awaitBus
	r.bus.Transfer(a.geom.PageBytes, r.step)
}

// finish stages the read's span, recycles the record and calls done.
func (r *pageRead) finish() {
	a, done := r.a, r.done
	if r.tracer != nil {
		if r.tracer != a.stagedTo || len(a.staged) == spanBatch {
			a.FlushSpans()
			a.stagedTo = r.tracer
		}
		a.staged = append(a.staged, obs.Interval{TID: int64(r.channel), Start: r.start, Dur: sim.Duration(a.e.Now() - r.start)})
	}
	r.done, r.tracer = nil, nil
	a.freeReads = append(a.freeReads, r)
	if done != nil {
		done()
	}
}

// Bus returns the channel bus link for utilization inspection or for
// modeling non-page traffic (e.g. weight broadcast to chip accelerators).
func (a *Array) Bus(channel int) *sim.Link { return a.buses[channel] }

func (a *Array) plane(addr PageAddr) *sim.Resource {
	g := &a.geom
	if !g.Valid(addr) {
		panic(fmt.Sprintf("flash: address %+v outside geometry", addr))
	}
	return &a.planes[(addr.Channel*g.ChipsPerChannel+addr.Chip)*g.PlanesPerChip+addr.Plane]
}

// ReadPage reads one page: the plane is busy for the array-read latency
// (cell → page buffer, Fig. 5 ❷), then the page crosses the channel bus
// (Fig. 5 ❸). done fires when the last byte leaves the bus.
func (a *Array) ReadPage(addr PageAddr, done func()) {
	a.startRead(addr, a.buses[addr.Channel], done)
}

// ReadPageToBuffer performs only the array read (cell → page buffer) without
// a channel-bus transfer. Chip-level accelerators consume pages directly
// from the plane page buffers (§4.5), so their data path skips the bus.
func (a *Array) ReadPageToBuffer(addr PageAddr, done func()) {
	a.startRead(addr, nil, done)
}

// ProgramPage programs one page: the plane is busy for the program latency
// after the data crosses the channel bus.
func (a *Array) ProgramPage(addr PageAddr, done func()) {
	a.stats.PagePrograms++
	a.stats.BusBytes += uint64(a.geom.PageBytes)
	a.buses[addr.Channel].Transfer(a.geom.PageBytes, func() {
		a.plane(addr).Hold(a.timing.ProgramLatency, done)
	})
}

// EraseBlock erases one block, holding the plane for the erase latency.
func (a *Array) EraseBlock(addr PageAddr, done func()) {
	a.stats.BlockErases++
	a.plane(addr).Hold(a.timing.EraseLatency, done)
}
