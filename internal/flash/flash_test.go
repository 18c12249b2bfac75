package flash

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/racetest"
	"repro/internal/sim"
)

func smallGeometry() Geometry {
	return Geometry{Channels: 2, ChipsPerChannel: 2, PlanesPerChip: 2,
		BlocksPerPlane: 4, PagesPerBlock: 8, PageBytes: 16 << 10}
}

func totalPages(g Geometry) int64 {
	return int64(g.Channels*g.ChipsPerChannel*g.PlanesPerChip) * int64(g.BlocksPerPlane*g.PagesPerBlock)
}

// fromLinear is the inverse of Linear: idx mod totalPages(g) as an address.
func fromLinear(g Geometry, idx int64) PageAddr {
	idx %= totalPages(g)
	var a PageAddr
	for _, f := range []struct {
		field *int
		n     int
	}{{&a.Channel, g.Channels}, {&a.Chip, g.ChipsPerChannel}, {&a.Plane, g.PlanesPerChip}, {&a.Page, g.PagesPerBlock}} {
		*f.field = int(idx % int64(f.n))
		idx /= int64(f.n)
	}
	a.Block = int(idx)
	return a
}

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	g := DefaultGeometry()
	if g.Channels != 32 || g.ChipsPerChannel != 4 || g.PlanesPerChip != 8 ||
		g.BlocksPerPlane != 512 || g.PagesPerBlock != 128 || g.PageBytes != 16<<10 {
		t.Errorf("default geometry %+v does not match §6.1", g)
	}
	// 32ch * 4chips * 8planes * 512blocks * 128pages * 16KB = 1 TiB raw,
	// matching the 1 TB evaluation SSD.
	if got := totalPages(g) * g.PageBytes; got != 1<<40 {
		t.Errorf("capacity = %d, want 1 TiB", got)
	}
	if g.Chips() != 128 {
		t.Errorf("chips = %d, want 128", g.Chips())
	}
}

func TestDefaultTimingMatchesPaper(t *testing.T) {
	tm := DefaultTiming()
	if tm.ReadLatency != 53*sim.Microsecond {
		t.Errorf("read latency = %v, want 53us", tm.ReadLatency)
	}
	if tm.ChannelBandwidth != 800e6 {
		t.Errorf("channel bandwidth = %v, want 800e6", tm.ChannelBandwidth)
	}
}

// TestLinearRoundTrip: Linear numbers the geometry's pages densely, each
// address its own index.
func TestLinearRoundTrip(t *testing.T) {
	g := smallGeometry()
	seen := make([]bool, totalPages(g))
	for idx := range seen {
		a := fromLinear(g, int64(idx))
		if !g.Valid(a) || g.Linear(a) != int64(idx) || seen[idx] {
			t.Fatalf("index %d: address %+v maps back to %d", idx, a, g.Linear(a))
		}
		seen[idx] = true
	}
}

func TestLinearStripesAcrossChannels(t *testing.T) {
	// Consecutive linear indices must land on consecutive channels (§4.4).
	g := smallGeometry()
	if got := g.Linear(PageAddr{Channel: 1}); got != 1 {
		t.Errorf("channel 1's first page has index %d, want 1", got)
	}
	// After a full channel rotation, the chip advances.
	if got := g.Linear(PageAddr{Chip: 1}); got != int64(g.Channels) {
		t.Errorf("chip 1's first page has index %d, want %d", got, g.Channels)
	}
}

func TestLinearOutOfRangePanics(t *testing.T) {
	g := smallGeometry()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Linear did not panic")
		}
	}()
	g.Linear(PageAddr{Block: g.BlocksPerPlane})
}

// TestPlaneTableIndexesEveryPlane: the flat plane table hands every
// (channel, chip, plane) its own resource, whatever the block and page.
func TestPlaneTableIndexesEveryPlane(t *testing.T) {
	g := Geometry{Channels: 3, ChipsPerChannel: 5, PlanesPerChip: 2,
		BlocksPerPlane: 4, PagesPerBlock: 8, PageBytes: 4096}
	a, err := NewArray(sim.NewEngine(), g, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*sim.Resource]bool{}
	for ch := 0; ch < g.Channels; ch++ {
		for cp := 0; cp < g.ChipsPerChannel; cp++ {
			for pl := 0; pl < g.PlanesPerChip; pl++ {
				addr := PageAddr{Channel: ch, Chip: cp, Plane: pl, Block: (ch + cp) % 4, Page: pl * 7}
				r := a.plane(addr)
				if r != a.plane(PageAddr{Channel: ch, Chip: cp, Plane: pl}) || seen[r] {
					t.Errorf("%+v: plane resource shared or not fixed by (channel, chip, plane)", addr)
				}
				seen[r] = true
			}
		}
	}
}

// TestOutOfRangeAddressPanics: every field of a PageAddr is bounds-checked,
// below zero and at the geometry's limit, by every operation.
func TestOutOfRangeAddressPanics(t *testing.T) {
	g := smallGeometry()
	fields := []struct {
		name string
		set  func(*PageAddr, int)
		lim  int
	}{
		{"Channel", func(a *PageAddr, v int) { a.Channel = v }, g.Channels},
		{"Chip", func(a *PageAddr, v int) { a.Chip = v }, g.ChipsPerChannel},
		{"Plane", func(a *PageAddr, v int) { a.Plane = v }, g.PlanesPerChip},
		{"Block", func(a *PageAddr, v int) { a.Block = v }, g.BlocksPerPlane},
		{"Page", func(a *PageAddr, v int) { a.Page = v }, g.PagesPerBlock},
	}
	ops := map[string]func(*Array, PageAddr){
		"ReadPage":         func(a *Array, addr PageAddr) { a.ReadPage(addr, nil) },
		"ReadPageToBuffer": func(a *Array, addr PageAddr) { a.ReadPageToBuffer(addr, nil) },
		"ProgramPage":      func(a *Array, addr PageAddr) { a.ProgramPage(addr, nil); a.e.Run() },
		"EraseBlock":       func(a *Array, addr PageAddr) { a.EraseBlock(addr, nil) },
	}
	for _, f := range fields {
		for _, v := range []int{-1, f.lim, f.lim + 1<<20} {
			for name, op := range ops {
				addr := PageAddr{Channel: 1, Chip: 1, Plane: 1, Block: 1, Page: 1}
				f.set(&addr, v)
				a, _ := NewArray(sim.NewEngine(), g, DefaultTiming())
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s with %s = %d did not panic", name, f.name, v)
						}
					}()
					op(a, addr)
				}()
			}
		}
	}
}

func TestReadPageTiming(t *testing.T) {
	e := sim.NewEngine()
	a, err := NewArray(e, smallGeometry(), DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	a.ReadPage(PageAddr{}, func() { doneAt = e.Now() })
	e.Run()
	// 53us array read + 16KB / 800MB/s = 20.48us transfer.
	want := sim.Time(53*sim.Microsecond) + sim.Time(sim.FromSeconds(16384.0/800e6))
	if doneAt != want {
		t.Errorf("read done at %v, want %v", doneAt, want)
	}
	if a.Stats().PageReads != 1 {
		t.Errorf("page reads = %d, want 1", a.Stats().PageReads)
	}
}

func TestReadsSamePlaneSerialize(t *testing.T) {
	e := sim.NewEngine()
	a, _ := NewArray(e, smallGeometry(), DefaultTiming())
	var done []sim.Time
	addr := PageAddr{Block: 0, Page: 0}
	addr2 := PageAddr{Block: 1, Page: 3}
	a.ReadPage(addr, func() { done = append(done, e.Now()) })
	a.ReadPage(addr2, func() { done = append(done, e.Now()) })
	e.Run()
	// Second array read starts when the first hands off to the bus (t=53us),
	// finishes array at 106us, then transfers behind an idle bus.
	if len(done) != 2 {
		t.Fatal("reads did not complete")
	}
	if done[1] < sim.Time(106*sim.Microsecond) {
		t.Errorf("same-plane reads overlapped: second done at %v", done[1])
	}
}

func TestReadsDifferentChannelsParallel(t *testing.T) {
	e := sim.NewEngine()
	a, _ := NewArray(e, smallGeometry(), DefaultTiming())
	var done []sim.Time
	a.ReadPage(PageAddr{Channel: 0}, func() { done = append(done, e.Now()) })
	a.ReadPage(PageAddr{Channel: 1}, func() { done = append(done, e.Now()) })
	e.Run()
	if done[0] != done[1] {
		t.Errorf("independent channels did not run in parallel: %v vs %v", done[0], done[1])
	}
}

func TestReadsSameChannelShareBus(t *testing.T) {
	e := sim.NewEngine()
	a, _ := NewArray(e, smallGeometry(), DefaultTiming())
	var done []sim.Time
	// Different chips, same channel: array reads overlap, bus serializes.
	a.ReadPage(PageAddr{Chip: 0}, func() { done = append(done, e.Now()) })
	a.ReadPage(PageAddr{Chip: 1}, func() { done = append(done, e.Now()) })
	e.Run()
	transfer := sim.FromSeconds(16384.0 / 800e6)
	want0 := sim.Time(53*sim.Microsecond + transfer)
	want1 := sim.Time(53*sim.Microsecond + 2*transfer)
	if done[0] != want0 || done[1] != want1 {
		t.Errorf("bus sharing wrong: got %v, %v; want %v, %v", done[0], done[1], want0, want1)
	}
}

func TestReadPageToBufferSkipsBus(t *testing.T) {
	e := sim.NewEngine()
	a, _ := NewArray(e, smallGeometry(), DefaultTiming())
	var doneAt sim.Time
	a.ReadPageToBuffer(PageAddr{}, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != sim.Time(53*sim.Microsecond) {
		t.Errorf("buffer read done at %v, want 53us", doneAt)
	}
	if a.Stats().BusBytes != 0 {
		t.Error("buffer read used the channel bus")
	}
}

func TestProgramAndErase(t *testing.T) {
	e := sim.NewEngine()
	a, _ := NewArray(e, smallGeometry(), DefaultTiming())
	var programDone, eraseDone sim.Time
	a.ProgramPage(PageAddr{}, func() { programDone = e.Now() })
	e.Run()
	a.EraseBlock(PageAddr{Block: 2}, func() { eraseDone = e.Now() })
	e.Run()
	transfer := sim.FromSeconds(16384.0 / 800e6)
	if programDone != sim.Time(transfer+600*sim.Microsecond) {
		t.Errorf("program done at %v", programDone)
	}
	if eraseDone-programDone != sim.Time(3*sim.Millisecond) {
		t.Errorf("erase took %v, want 3ms", eraseDone-programDone)
	}
	s := a.Stats()
	if s.PagePrograms != 1 || s.BlockErases != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestInternalBandwidth: past the first sense, reads spread over every
// plane stream at the aggregate channel-bus bandwidth, 32 × 800 MB/s.
func TestInternalBandwidth(t *testing.T) {
	e := sim.NewEngine()
	g, tm := DefaultGeometry(), DefaultTiming()
	a, _ := NewArray(e, g, tm)
	const perChannel = 8 // fewer than a channel's planes, so every sense overlaps
	for ch := 0; ch < g.Channels; ch++ {
		for k := 0; k < perChannel; k++ {
			a.ReadPage(PageAddr{Channel: ch, Chip: k % g.ChipsPerChannel, Plane: k / g.ChipsPerChannel}, nil)
		}
	}
	streaming := sim.Duration(e.Run()) - tm.ReadLatency
	bytes := float64(g.Channels*perChannel) * float64(g.PageBytes)
	if got := bytes / streaming.Seconds(); math.Abs(got-25.6e9) > 1e3 {
		t.Errorf("internal bandwidth = %v, want 25.6e9", got)
	}
}

func TestNewArrayRejectsBadConfig(t *testing.T) {
	e := sim.NewEngine()
	if _, err := NewArray(e, Geometry{}, DefaultTiming()); err == nil {
		t.Error("zero geometry accepted")
	}
	if _, err := NewArray(e, smallGeometry(), Timing{}); err == nil {
		t.Error("zero timing accepted")
	}
}

// Property: n reads spread across all channels of the default geometry take
// no longer than the serial time of one channel and no less than the ideal
// parallel bound.
func TestParallelReadScalingProperty(t *testing.T) {
	f := func(nn uint8) bool {
		n := int(nn%64) + 1
		e := sim.NewEngine()
		g := smallGeometry()
		a, _ := NewArray(e, g, DefaultTiming())
		for i := 0; i < n; i++ {
			a.ReadPage(fromLinear(g, int64(i)), nil)
		}
		end := e.Run()
		transfer := sim.FromSeconds(16384.0 / 800e6)
		serial := sim.Time(int64(n) * int64(53*sim.Microsecond+transfer))
		return end <= serial && end >= sim.Time(53*sim.Microsecond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestReadFaultsChargeSimulatedTime: with a certain (rate-1 equivalent via
// forced schedule) failure, every retry holds the plane for one more
// array-read time, and the retry budget bounds the stall.
func TestReadFaultsChargeSimulatedTime(t *testing.T) {
	e := sim.NewEngine()
	a, _ := NewArray(e, smallGeometry(), DefaultTiming())
	err := a.SetReadFaults(ReadFaults{ErrorRate: 0.999999999, MaxRetries: 3, Inj: fault.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	a.ReadPage(PageAddr{}, func() { doneAt = e.Now() })
	e.Run()
	// First sense + 3 retries, then the bus transfer.
	want := sim.Time(4*53*sim.Microsecond) + sim.Time(sim.FromSeconds(16384.0/800e6))
	if doneAt != want {
		t.Errorf("faulted read done at %v, want %v", doneAt, want)
	}
	s := a.Stats()
	if s.ReadRetries != 3 || s.ReadFailures != 1 {
		t.Errorf("retries = %d failures = %d, want 3 and 1", s.ReadRetries, s.ReadFailures)
	}
}

// TestReadFaultsDeterministic: the same seed produces the same retry count
// and the same finish time; different seeds may differ, zero rate is
// bit-identical to an unfaulted array.
func TestReadFaultsDeterministic(t *testing.T) {
	run := func(rate float64, seed int64) (sim.Time, Stats) {
		e := sim.NewEngine()
		g := smallGeometry()
		a, _ := NewArray(e, g, DefaultTiming())
		if rate > 0 {
			if err := a.SetReadFaults(ReadFaults{ErrorRate: rate, Inj: fault.New(seed)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 64; i++ {
			a.ReadPage(fromLinear(g, i), nil)
		}
		return e.Run(), a.Stats()
	}
	end1, s1 := run(0.3, 7)
	end2, s2 := run(0.3, 7)
	if end1 != end2 || s1 != s2 {
		t.Errorf("same seed diverged: %v/%v vs %v/%v", end1, s1, end2, s2)
	}
	if s1.ReadRetries == 0 {
		t.Error("30% error rate injected no retries over 64 reads")
	}
	clean, cs := run(0, 0)
	base, bs := run(0, 99)
	if clean != base || cs != bs {
		t.Error("zero-rate runs differ")
	}
	if end1 <= clean {
		t.Errorf("faulted run (%v) not slower than clean run (%v)", end1, clean)
	}
}

// TestReadPageToBufferFaults: the chip-accelerator read path (no bus) also
// charges retries.
func TestReadPageToBufferFaults(t *testing.T) {
	e := sim.NewEngine()
	a, _ := NewArray(e, smallGeometry(), DefaultTiming())
	if err := a.SetReadFaults(ReadFaults{ErrorRate: 0.999999999, MaxRetries: 2, Inj: fault.New(3)}); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	a.ReadPageToBuffer(PageAddr{}, func() { doneAt = e.Now() })
	e.Run()
	if want := sim.Time(3 * 53 * sim.Microsecond); doneAt != want {
		t.Errorf("buffer read done at %v, want %v", doneAt, want)
	}
}

func TestReadFaultsValidation(t *testing.T) {
	e := sim.NewEngine()
	a, _ := NewArray(e, smallGeometry(), DefaultTiming())
	if err := a.SetReadFaults(ReadFaults{ErrorRate: 1.5, Inj: fault.New(0)}); err == nil {
		t.Error("rate ≥ 1 accepted")
	}
	if err := a.SetReadFaults(ReadFaults{ErrorRate: 0.5}); err == nil {
		t.Error("missing injector accepted")
	}
	if err := a.SetReadFaults(ReadFaults{}); err != nil {
		t.Errorf("zero value rejected: %v", err)
	}
}

// TestWarmedReadsDoNotAllocate guards the free-listed read chain: once a
// window of reads has been in flight, a page read with a pre-bound callback
// allocates nothing (the issue's bound is one allocation per read).
func TestWarmedReadsDoNotAllocate(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	e := sim.NewEngine()
	g := smallGeometry()
	a, err := NewArray(e, g, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	done := func() {}
	const reads = 64
	window := func() {
		for i := int64(0); i < reads/2; i++ {
			a.ReadPage(fromLinear(g, i), done)
			a.ReadPageToBuffer(fromLinear(g, i+reads/2), done)
		}
		e.Run()
	}
	window() // warm: read records, hold records, waiter rings, calendar
	if got := testing.AllocsPerRun(10, window) / reads; got > 0 {
		t.Errorf("warmed ReadPage/ReadPageToBuffer: %v allocs per read, want 0", got)
	}
	if want := uint64(12 * reads); a.Stats().PageReads != want {
		t.Errorf("page reads = %d, want %d", a.Stats().PageReads, want)
	}
}

// TestPageReadSpansReachTracerInOrder: page-read spans are staged and reach
// the tracer in the order the reads finished, on a flush, when a batch
// fills, or when the tracer changes; a read's span goes to the tracer in
// force when it was issued.
func TestPageReadSpansReachTracerInOrder(t *testing.T) {
	e := sim.NewEngine()
	g := smallGeometry()
	a, _ := NewArray(e, g, DefaultTiming())
	first, second := obs.NewTracer(0), obs.NewTracer(0)
	a.SetTracer(first)
	var finished []obs.Interval
	read := func(i int64) {
		addr := fromLinear(g, i)
		start := e.Now()
		a.ReadPage(addr, func() {
			finished = append(finished, obs.Interval{TID: int64(addr.Channel), Start: start, Dur: sim.Duration(e.Now() - start)})
		})
	}
	const reads = spanBatch + 37
	for i := int64(0); i < reads; i++ {
		read(i)
	}
	e.Run()
	if got := len(first.Spans()); got != spanBatch {
		t.Fatalf("before a flush the tracer holds %d spans, want the one full batch of %d", got, spanBatch)
	}
	a.FlushSpans()
	check := func(tr *obs.Tracer, want []obs.Interval) {
		t.Helper()
		spans := tr.Spans()
		if len(spans) != len(want) {
			t.Fatalf("%d spans, want %d", len(spans), len(want))
		}
		for i, s := range spans {
			if s.Name != obs.SpanFlashRead || s.Cat != "flash" || (obs.Interval{TID: s.TID, Start: s.Start, Dur: s.Dur}) != want[i] {
				t.Fatalf("span %d = %+v, want %+v", i, s, want[i])
			}
		}
	}
	check(first, finished)

	// Reads issued under first finish after the switch to second: their
	// spans still go to first, and SetTracer handed over what was staged.
	finished = finished[:0]
	read(0)
	read(1)
	e.After(sim.Microsecond, func() {
		a.SetTracer(second)
		read(2)
	})
	e.Run()
	a.FlushSpans()
	check(second, finished[2:])
	if got := len(first.Spans()); got != reads+2 {
		t.Errorf("first holds %d spans, want %d", got, reads+2)
	}
}
