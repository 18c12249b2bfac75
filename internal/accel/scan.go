package accel

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/energy"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// ScanRequest describes one full similarity scan of a feature database by
// in-storage accelerators: the §4.2 execution of a query that missed the
// query cache.
type ScanRequest struct {
	Device *ssd.Device
	Spec   Spec
	Net    *nn.Network
	Layout ftl.DBLayout
	// WindowFeaturesPerAccel switches the cycle cut on: any positive value
	// lets the event-driven model stop simulating once every unit's batch
	// cycle is proven and add the skipped cycles' time (see Scan); zero
	// simulates every batch. The value itself steers nothing. A scan under
	// read faults never proves a cycle and runs every batch either way.
	WindowFeaturesPerAccel int64
}

// ScanResult reports a scan's timing and activity.
type ScanResult struct {
	// Elapsed is the wall-clock time of the scan.
	Elapsed sim.Duration
	// Features is the number of comparisons performed (the database size).
	Features int64
	// SimulatedFeatures is how many comparisons the event-driven model
	// ran; the skipped whole batches make up the rest. It equals Features
	// when nothing was skipped.
	SimulatedFeatures int64
	// PerFeatureCycles is the amortized systolic latency per comparison.
	PerFeatureCycles int64
	// WeightSource is the tier the SCN weights streamed from.
	WeightSource WeightSource
	// WeightRounds counts lockstep weight-streaming rounds.
	WeightRounds int64
	// Accels is the number of accelerator instances used.
	Accels int
	// Activity is the energy-model activity of the whole scan.
	Activity energy.Activity
}

// ComputeUtilization returns the fraction of accelerator time spent in SCN
// compute (vs. waiting on flash, weight streaming, or barriers): 1.0 means
// the scan is compute-bound.
func (r ScanResult) ComputeUtilization(freqHz float64) float64 {
	if r.Elapsed <= 0 || r.Accels == 0 {
		return 0
	}
	busySec := float64(r.Features) * float64(r.PerFeatureCycles) / freqHz / float64(r.Accels)
	u := busySec / r.Elapsed.Seconds()
	if u > 1 {
		u = 1
	}
	return u
}

// EffectiveBandwidth returns the scan's dense-feature consumption rate in
// bytes per second.
func (r ScanResult) EffectiveBandwidth(featureBytes int64) float64 {
	s := r.Elapsed.Seconds()
	if s == 0 {
		return 0
	}
	return float64(r.Features*featureBytes) / s
}

// barrier synchronizes the accelerators of one lockstep weight-streaming
// group (§4.5: the channel-level accelerator schedules weights in lockstep
// across its chip-level accelerators; channel-level accelerators share L2
// weight broadcasts the same way).
type barrier struct {
	members int
	arrived int
	// waiters collects the current round's arrivals; firing holds the round
	// whose weight transfer is in flight. A member cannot arrive again before
	// its round is released, so two buffers swapped per round suffice and a
	// round allocates nothing.
	waiters []func()
	firing  []func()
	// link carries the round's weight transfer; nil when the weights are
	// L1-resident and nothing streams.
	link        *sim.Link
	weightBytes int64
	rounds      *int64
	release     func()
}

func newBarrier(members int, link *sim.Link, weightBytes int64, rounds *int64) *barrier {
	b := &barrier{members: members, link: link, weightBytes: weightBytes, rounds: rounds}
	b.release = func() {
		for _, w := range b.firing {
			w()
		}
		b.firing = b.firing[:0]
	}
	return b
}

func (b *barrier) maybeFire() {
	if b.members > 0 && b.arrived == b.members {
		b.arrived = 0
		b.waiters, b.firing = b.firing, b.waiters
		*b.rounds++
		if b.link == nil {
			b.release()
			return
		}
		b.link.Transfer(b.weightBytes, b.release)
	}
}

func (b *barrier) arrive(fn func()) {
	b.arrived++
	b.waiters = append(b.waiters, fn)
	b.maybeFire()
}

func (b *barrier) leave() {
	b.members--
	b.maybeFire()
}

// scanRun is the state the units of one scan share.
type scanRun struct {
	e             *sim.Engine
	streaming     bool
	featPerPage   float64
	pagesPerBatch int64
	// perFeatCycles × cyclePs is the SCN compute time of one comparison.
	perFeatCycles int64
	cyclePs       float64

	units   []*unit
	pending int // units still scanning
	// proving is set while the scan may still be cut; proven counts the
	// units still scanning that hold a proven batch cycle.
	proving bool
	proven  int
	// The cut left skippedPages page reads and skippedRounds weight rounds
	// unsimulated, and skippedTime of simulated time.
	skippedPages, skippedRounds int64
	skippedTime                 sim.Duration
	// features sums the finished units' shares, in the order the units
	// finish.
	features     float64
	scanEnd      sim.Time
	weightRounds int64
}

// A unit proves a batch cycle of m ≤ maxCycle full batches when its latest
// cycleReps·m batch periods are cycleReps repetitions of one m-period
// pattern; it remembers the cycleMarks full-batch completions that takes.
const (
	maxCycle   = 4
	cycleReps  = 3
	cycleMarks = maxCycle*cycleReps + 1
)

// mark is one full-batch completion of a unit: when it happened and the
// unit's pipeline occupancy at that moment.
type mark struct {
	at  sim.Time
	occ occupancy
}

type occupancy struct {
	ahead    int64 // pages issued but not yet taken into a batch
	inflight int64 // page reads not yet accepted by the FLASH_DFV queue
	queued   int   // pages waiting in the FLASH_DFV queue
}

// unit is one accelerator instance: its work assignment and the two
// processes that carry it out. A prefetcher keeps a window of page reads in
// flight feeding the FLASH_DFV queue; the compute process drains batches,
// synchronizing on the weight barrier when streaming. Both are state machines
// over the unit's own fields whose stage callbacks are bound once in newUnit,
// so a scan schedules its events without building a closure per page or per
// batch.
type unit struct {
	run   *scanRun
	share int64 // pages of the unit's share of the database
	pages int64 // pages to read: the share less the skipped batches
	group *barrier
	// read issues the next page of the unit's share; the page's arrival at
	// the accelerator must call pageArrived. Channel- and chip-level units
	// read through readCursor: cur's next page, into the page buffer when
	// toBuffer is set.
	read       func()
	readCursor func()
	flash      *flash.Array
	cur        ftl.PageCursor
	toBuffer   bool
	// window is the outstanding-read limit; the SSD-level accelerator
	// prefetches across every channel at once and needs a proportionally
	// larger window to hide the array-read latency.
	window int64
	// q is the FLASH_DFV queue. It buffers a handful of pages (Fig. 5) —
	// enough to decouple array reads from compute without unphysical
	// staging.
	q  *sim.Queue
	qe *sim.Engine // q's engine

	issued, inflight int64 // prefetcher
	consumed         int64 // compute process: pages of finished batches
	take, got        int64 // pages the current batch needs and has
	feats            float64
	retired          bool
	// full counts the full batches marked since the unit's proof last
	// restarted; marks holds the latest of them (mark j at j mod
	// cycleMarks). cycle is the proven cycle's length in batches, 0 when
	// none is proven, and cycleTime its length in simulated time.
	full      int64
	marks     [cycleMarks]mark
	cycle     int64
	cycleTime sim.Duration

	pageArrived, pageAccepted, pageTaken, compute, computed func()
}

// scanScratch is the host side of a scan that outlives it: the run its
// units share and every unit built so far, each with its stage callbacks
// bound once and its FLASH_DFV queue. Scan takes one from scanScratches and
// returns it after a scan that completed (every queue drained, nothing left
// on the calendar), so repeated scans of a device build their units once.
type scanScratch struct {
	run   scanRun
	built []*unit
	units []*unit // this scan's units, a prefix of built
}

var scanScratches = sync.Pool{New: func() any { return new(scanScratch) }}

// newUnit adds the scan's next unit: the next built one, reset, when its
// queue is on run's engine, else a new one.
func (sc *scanScratch) newUnit(run *scanRun, share int64, group *barrier, window int64) *unit {
	i := len(sc.units)
	if i == len(sc.built) {
		sc.built = append(sc.built, bindUnit())
	}
	u := sc.built[i]
	if u.qe != run.e {
		u.q, u.qe = sim.NewQueue(run.e, "flash-dfv", 4), run.e
	}
	*u = unit{
		run: run, share: share, pages: share,
		group: group, window: window, q: u.q, qe: u.qe,
		readCursor:  u.readCursor,
		pageArrived: u.pageArrived, pageAccepted: u.pageAccepted,
		compute: u.compute, computed: u.computed, pageTaken: u.pageTaken,
	}
	sc.units = append(sc.units, u)
	return u
}

// bindUnit makes a unit with its stage callbacks bound; newUnit fills in
// the rest.
func bindUnit() *unit {
	u := &unit{}
	u.readCursor = func() {
		if addr := u.cur.Next(); u.toBuffer {
			u.flash.ReadPageToBuffer(addr, u.pageArrived)
		} else {
			u.flash.ReadPage(addr, u.pageArrived)
		}
	}
	// The prefetch slot frees only when the FLASH_DFV queue accepts the
	// page — backpressure from a slow consumer stalls prefetching, as the
	// bounded queue in Fig. 5 does.
	u.pageArrived = func() { u.q.Put(u.pageAccepted) }
	u.pageAccepted = func() {
		u.inflight--
		u.prefetch()
	}
	u.pageTaken = func() {
		u.got++
		u.collect()
	}
	u.compute = func() {
		d := sim.Duration(float64(u.run.perFeatCycles)*u.feats*u.run.cyclePs + 0.5)
		u.run.e.After(d, u.computed)
	}
	u.computed = func() {
		if u.run.proving && u.take == u.run.pagesPerBatch {
			u.record()
		}
		u.nextBatch()
	}
	return u
}

func (u *unit) prefetch() {
	for u.inflight < u.window && u.issued < u.pages {
		u.issued++
		u.inflight++
		u.read()
	}
}

// record notes a full-batch completion and updates the unit's proof,
// trying the cut when the unit newly proves a cycle.
func (u *unit) record() {
	run := u.run
	u.marks[u.full%cycleMarks] = mark{
		at:  run.e.Now(),
		occ: occupancy{ahead: u.issued - u.consumed, inflight: u.inflight, queued: u.q.Len()},
	}
	u.full++
	m, c := u.findCycle()
	if m == u.cycle && c == u.cycleTime {
		return
	}
	if u.cycle != 0 {
		run.proven--
	}
	if u.cycle, u.cycleTime = m, c; m != 0 {
		run.proven++
		run.tryCut()
	}
}

// findCycle returns the shortest cycle m the unit's marks prove and its
// length in time, or 0, 0. The latest cycleReps·m periods must repeat with
// period m to the picosecond, and so must the occupancy at their ends.
func (u *unit) findCycle() (int64, sim.Duration) {
	n := u.full
	at := func(j int64) *mark { return &u.marks[j%cycleMarks] }
	for m := int64(1); m <= maxCycle && n > cycleReps*m; m++ {
		proven := true
		for j := n - 1; proven && j >= n-(cycleReps-1)*m; j-- {
			a, b := at(j), at(j-m)
			proven = a.occ == b.occ && a.at-at(j-1).at == b.at-at(j-m-1).at
		}
		if proven {
			return m, sim.Duration(at(n-1).at - at(n-1-m).at)
		}
	}
	return 0, 0
}

// tryCut cuts the scan once every unit still scanning has proven the same
// cycle of m batches taking C. The cut removes skip full batches from every
// such unit's pages: the largest multiple of m that leaves each unit every
// page it has issued plus one more cycle. From here on the scan repeats
// itself every C until the first unit runs out of pages to issue, so the
// skipped batches take (skip/m)·C, and each lockstep group skips skip
// weight rounds.
func (run *scanRun) tryCut() {
	if run.proven < run.pending {
		return
	}
	var m int64
	var c sim.Duration
	skip := int64(math.MaxInt64)
	for _, u := range run.units {
		if u.retired {
			continue
		}
		if m == 0 {
			m, c = u.cycle, u.cycleTime
		} else if u.cycle != m || u.cycleTime != c {
			return
		}
		skip = min(skip, (u.pages-u.issued)/run.pagesPerBatch)
	}
	if skip -= m; skip < m {
		return
	}
	skip -= skip % m
	run.proving = false
	var group *barrier
	for _, u := range run.units {
		if u.retired {
			continue
		}
		u.pages -= skip * run.pagesPerBatch
		run.skippedPages += skip * run.pagesPerBatch
		if run.streaming && u.group != group {
			group = u.group
			run.skippedRounds += skip
		}
	}
	run.skippedTime = sim.Duration(skip/m) * c
}

// retire drops the unit from the scan. A unit leaving changes what the
// others do (a lockstep group shrinks, shared links free up), so every
// proof so far restarts.
func (u *unit) retire() {
	run := u.run
	run.features += float64(u.share) * run.featPerPage
	u.retired = true
	u.group.leave()
	if run.pending--; run.pending == 0 {
		run.scanEnd = run.e.Now()
	}
	if run.proving {
		for _, v := range run.units {
			v.full, v.cycle, v.cycleTime = 0, 0, 0
		}
		run.proven = 0
	}
}

// nextBatch starts collecting the unit's next batch of pages, or retires the
// unit when its share is done.
func (u *unit) nextBatch() {
	run := u.run
	if u.consumed >= u.pages {
		u.retire()
		return
	}
	u.take = run.pagesPerBatch
	if rem := u.pages - u.consumed; u.take > rem {
		u.take = rem
	}
	u.got = 0
	u.collect()
}

// collect takes pages from the FLASH_DFV queue until the batch is complete,
// then computes it (after the group's weight round, when streaming).
func (u *unit) collect() {
	for ; u.got < u.take; u.got++ {
		if !u.q.TryGet() {
			u.q.Get(u.pageTaken)
			return
		}
	}
	u.consumed += u.take
	u.feats = float64(u.take) * u.run.featPerPage
	if u.run.streaming {
		u.group.arrive(u.compute)
	} else {
		u.compute()
	}
}

// Scan runs the event-driven scan simulation. The device's engine must be
// idle; Scan drives it to completion.
func Scan(req ScanRequest) (ScanResult, error) {
	dev := req.Device
	if dev == nil {
		return ScanResult{}, fmt.Errorf("accel: nil device")
	}
	cfg := dev.Config
	prec := req.Spec.Array.Precision
	wantFeatureBytes := int64(req.Net.FeatureElems()) * prec.ElementBytes()
	if req.Layout.FeatureBytes != wantFeatureBytes {
		return ScanResult{}, fmt.Errorf("accel: layout feature size %d != %s network feature size %d",
			req.Layout.FeatureBytes, prec, wantFeatureBytes)
	}
	if err := req.Spec.CheckSupport(req.Net, cfg); err != nil {
		return ScanResult{}, err
	}

	weightBytes := req.Net.WeightCount() * prec.ElementBytes()
	cost := req.Spec.Array.NetworkCost(req.Net.LayerPlan())
	src := req.Spec.weightSource(weightBytes, cfg)
	batch := req.Spec.BatchFeatures(req.Layout.FeatureBytes)
	perFeatCycles := cost.Cycles + InputStageCycles(req.Net.FeatureElems(), prec)
	cyclePs := req.Spec.Array.CyclePs()

	layout := req.Layout
	geom := layout.Geom
	e := dev.Engine
	startFlash := dev.Flash.Stats()
	start := e.Now()

	// Features a page contributes (1/pagesPerFeature for multi-page
	// features, FeaturesPerPage for packed ones).
	var featPerPage float64
	if fp := layout.FeaturesPerPage(); fp > 0 {
		featPerPage = float64(fp)
	} else {
		featPerPage = 1 / float64(layout.PagesPerFeature())
	}

	pagesPerBatch := int64(float64(batch)/featPerPage + 0.999)
	if pagesPerBatch < 1 {
		pagesPerBatch = 1
	}
	sc := scanScratches.Get().(*scanScratch)
	sc.units = sc.units[:0]
	run := &sc.run
	*run = scanRun{
		e: e, streaming: src != SourceL1,
		featPerPage: featPerPage, pagesPerBatch: pagesPerBatch,
		perFeatCycles: perFeatCycles, cyclePs: cyclePs,
	}

	// Build the accelerator units and their lockstep groups.
	group := func(members int, link *sim.Link) *barrier {
		if !run.streaming {
			link = nil
		}
		return newBarrier(members, link, weightBytes, &run.weightRounds)
	}

	// readDepth is the outstanding-read limit of a channel- or
	// chip-level accelerator.
	const readDepth = 16

	switch req.Spec.Level {
	case LevelSSD:
		// One accelerator streaming every channel through DRAM.
		var total int64
		perChannel := make([]int64, geom.Channels)
		for ch := 0; ch < geom.Channels; ch++ {
			perChannel[ch] = layout.ChannelPages(ch)
			total += perChannel[ch]
		}
		u := sc.newUnit(run, total, group(1, dev.DRAM), int64(8*geom.Channels))
		toDRAM := func() { dev.DRAM.Transfer(geom.PageBytes, u.pageArrived) }
		// Page j of the device share is page j / Channels of channel
		// j mod Channels: the reads rotate across the channels' cursors.
		cursors := make([]ftl.PageCursor, geom.Channels)
		for ch := range cursors {
			cursors[ch] = layout.PageCursor(ch, 0, 1)
		}
		ch := 0
		u.read = func() {
			var addr flash.PageAddr
			if c := &cursors[ch]; !c.Done() {
				addr = c.Next()
			} else {
				// Clamp into the channel's share (shares differ by ±1 page).
				addr = layout.ChannelPageAddr(ch, perChannel[ch]-1)
			}
			if ch++; ch == geom.Channels {
				ch = 0
			}
			dev.Flash.ReadPage(addr, toDRAM)
		}

	case LevelChannel:
		// One accelerator per channel; weights broadcast from L2 or DRAM
		// in lockstep across all channels.
		var link *sim.Link
		if src == SourceDRAM {
			link = dev.DRAM
		} else {
			link = dev.SharedSpad
		}
		g := group(geom.Channels, link)
		for ch := 0; ch < geom.Channels; ch++ {
			ch := ch
			share := layout.ChannelPages(ch)
			if share == 0 {
				g.leave()
				continue
			}
			u := sc.newUnit(run, share, g, readDepth)
			u.flash, u.cur = dev.Flash, layout.PageCursor(ch, 0, 1)
			u.read = u.readCursor
		}

	case LevelChip:
		// One accelerator per chip, fed from page buffers (no channel-bus
		// data traffic); weights broadcast per channel bus in lockstep
		// across the channel's chips.
		for ch := 0; ch < geom.Channels; ch++ {
			g := group(geom.ChipsPerChannel, dev.Flash.Bus(ch))
			chPages := layout.ChannelPages(ch)
			for chip := 0; chip < geom.ChipsPerChannel; chip++ {
				ch, chip := ch, chip
				share := chPages / int64(geom.ChipsPerChannel)
				if int64(chip) < chPages%int64(geom.ChipsPerChannel) {
					share++
				}
				if share == 0 {
					g.leave()
					continue
				}
				u := sc.newUnit(run, share, g, readDepth)
				// The chip's pages are every ChipsPerChannel-th of the channel's.
				u.flash, u.toBuffer = dev.Flash, true
				u.cur = layout.PageCursor(ch, int64(chip), geom.ChipsPerChannel)
				u.read = u.readCursor
			}
		}
	default:
		return ScanResult{}, fmt.Errorf("accel: unknown level %v", req.Spec.Level)
	}
	units := sc.units

	// Read retries are random draws, so a faulty scan has no cycle to prove.
	run.units, run.pending = units, len(units)
	run.proving = req.WindowFeaturesPerAccel > 0 && !dev.Flash.ReadFaultsActive()
	for _, u := range units {
		u.prefetch()
		u.nextBatch()
	}

	e.Run()
	dev.Flash.FlushSpans()
	if run.pending != 0 {
		return ScanResult{}, fmt.Errorf("accel: scan deadlocked with %d units pending", run.pending)
	}
	features := run.features
	weightRounds := run.weightRounds + run.skippedRounds
	elapsed := sim.Duration(run.scanEnd-start) + run.skippedTime
	skipped, accels := run.skippedPages, len(units)
	// The scan completed, so the scratch's queues are drained and nothing
	// on the calendar refers to its units: the next scan may reuse them.
	// What would pin this device's flash state while pooled is dropped.
	for _, u := range units {
		u.read, u.group, u.flash, u.run = nil, nil, nil, nil
	}
	sc.run = scanRun{}
	scanScratches.Put(sc)

	// The skipped batches count as read and streamed. scanEnd was stamped
	// when the last unit finished; other processes sharing the engine
	// (e.g. concurrent host I/O in the interference study) may keep
	// running past it.
	pageReads := int64(dev.Flash.Stats().PageReads-startFlash.PageReads) + skipped
	res := ScanResult{
		Elapsed:           elapsed,
		SimulatedFeatures: layout.Features - int64(float64(skipped)*featPerPage+0.5),
		PerFeatureCycles:  perFeatCycles,
		WeightSource:      src,
		WeightRounds:      weightRounds,
		Accels:            accels,
		Features:          layout.Features,
	}
	act := energy.Activity{
		MACs:       int64(float64(cost.MACs) * features),
		SRAMBytes:  int64(float64(cost.SRAMReadBytes+cost.SRAMWriteBytes) * features),
		SRAMSize:   req.Spec.Array.ScratchpadBytes,
		SRAMKind:   req.Spec.SRAMKind,
		FlashBytes: pageReads * geom.PageBytes,
	}
	if s := prec.MACEnergyScale(); s != 1 {
		// Reduced-precision MACs are cheaper (§7); FP32 leaves the record's
		// zero value so existing activity comparisons are unaffected.
		act.MACScale = s
	}
	switch req.Spec.Level {
	case LevelSSD:
		// Pages cross the channel bus and DRAM to reach the accelerator.
		act.NoCBytes = pageReads * geom.PageBytes
		act.DRAMBytes = pageReads * geom.PageBytes
	case LevelChannel:
		act.NoCBytes = pageReads * geom.PageBytes
	case LevelChip:
		// Data is consumed at the page buffers; only weights cross buses.
	}
	switch src {
	case SourceDRAM:
		act.DRAMBytes += weightRounds * weightBytes
		act.NoCBytes += weightRounds * weightBytes
	case SourceL2:
		act.L2Bytes += weightRounds * weightBytes
		act.L2Size = cfg.SharedScratchpadBytes
		act.NoCBytes += weightRounds * weightBytes
	case SourceL1:
		// One initial DRAM load per scan, negligible but counted.
		act.DRAMBytes += weightBytes
	}
	res.Activity = act
	return res, nil
}
