// Package sim provides a small discrete-event simulation kernel used by the
// flash, SSD, accelerator, and baseline timing models.
//
// The kernel follows the classic event-calendar design: an Engine owns a
// virtual clock and a priority queue of timestamped events; callers schedule
// closures at absolute or relative virtual times and the Engine executes them
// in timestamp order. All simulated hardware (flash channels, chips, DRAM,
// PCIe links, accelerator controllers) is modeled as processes that schedule
// follow-up events on the same Engine.
//
// Virtual time is measured in integer picoseconds (type Time). Picosecond
// resolution comfortably represents both sub-nanosecond accelerator cycles
// (1.25 ns at 800 MHz) and multi-second query scans without floating-point
// accumulation error.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a virtual timestamp in picoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Common durations, in picoseconds.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds converts a duration to floating-point seconds, for reporting.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds converts a duration to floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds converts a duration to floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// FromSeconds builds a Duration from floating-point seconds, rounding to the
// nearest picosecond.
func FromSeconds(s float64) Duration { return Duration(s*float64(Second) + 0.5) }

// String renders the duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Microseconds())
	case d >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(d)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// event is a single calendar entry. seq breaks ties so that events scheduled
// for the same instant run in FIFO order, which keeps the simulation
// deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before reports whether a runs before b: the (at, seq) order is the whole
// ordering contract of the kernel.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// laneCount is the number of fixed-delay lanes beside the heap. A device
// model schedules from a handful of positive delays (the flash sense, one
// page transfer per link, one compute batch), so a few lanes take nearly
// every delayed event and the heap keeps the rest.
const laneCount = 8

// lane is a FIFO of events scheduled with one delay. The clock never moves
// backwards, so successive pushes have non-decreasing now + delay and rising
// seq: the FIFO is in (at, seq) order by construction.
type lane struct {
	delay Duration // the key; an empty lane may be re-keyed
	tail  Time     // at of the newest event, for the order check
	q     ring[event]
}

func (l *lane) push(ev event) {
	if l.q.len() > 0 && ev.at < l.tail {
		panic(fmt.Sprintf("sim: event at %d queued behind %d in the delay-%d lane", ev.at, l.tail, l.delay))
	}
	l.tail = ev.at
	l.q.push(ev)
}

// Engine is a discrete-event simulation engine. The zero value is ready to
// use. An Engine is not safe for concurrent use; simulations are
// single-threaded by design so results are deterministic.
//
// An event for a later instant takes a sequence number and goes to a binary
// min-heap or to one of laneCount fixed-delay FIFOs, merged by (at, seq); a
// callback for Now() (a hand-off or a wake-up) goes to the instant FIFO. A
// heap or lane event due at Now() was scheduled earlier, so it runs first.
// Nothing allocates per event once the caller's callbacks are bound.
type Engine struct {
	now      Time
	seq      uint64
	heap     []event
	lanes    [laneCount]lane
	busy     uint // bit i is set while lane i holds events
	hint     int  // the lane laneFor returned last
	instant  ring[func()]
	draining bool // instant holds callbacks and nothing else is due at Now()

	// Executed counts events run so far; useful for debugging runaway
	// simulations.
	Executed uint64
	// MaxEvents, when non-zero, is a watchdog: Run panics after
	// executing that many events, turning a silently spinning model (a
	// process that reschedules itself at zero delay, a barrier that never
	// releases) into a loud failure with the event count in hand.
	MaxEvents uint64
}

// NewEngine returns a fresh Engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a modeling bug.
func (e *Engine) At(t Time, fn func()) {
	if t <= e.now {
		if t < e.now {
			panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
		}
		e.instant.push(fn)
		return
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	if i := e.laneFor(Duration(t - e.now)); i >= 0 {
		e.lanes[i].push(ev)
		e.busy |= 1 << i
		return
	}
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
}

// laneFor returns the index of the lane keyed by delay d > 0, re-keying an
// empty lane when no lane has that key; -1 sends the event to the heap.
func (e *Engine) laneFor(d Duration) int {
	if e.lanes[e.hint].delay == d {
		return e.hint
	}
	free := -1
	for i := range e.lanes {
		if e.lanes[i].delay == d {
			e.hint = i
			return i
		}
		if free < 0 && e.busy&(1<<i) == 0 {
			free = i
		}
	}
	if free >= 0 {
		e.lanes[free].delay = d
		e.hint = free
	}
	return free
}

// After schedules fn to run d picoseconds from now. Negative delays panic.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+Time(d), fn)
}

// Run executes events in timestamp order until the calendar is empty. It
// returns the final virtual time.
func (e *Engine) Run() Time {
	for e.step() {
	}
	return e.now
}

// next returns the (at, seq)-least pending heap or lane event and where it
// sits: a lane index, or laneCount for the heap top. It returns a nil event
// when the heap and the lanes are empty.
func (e *Engine) next() (int, *event) {
	src, best := laneCount, (*event)(nil)
	if len(e.heap) > 0 {
		best = &e.heap[0]
	}
	for m := e.busy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros(m)
		if h := e.lanes[i].q.peek(); best == nil || h.before(best) {
			src, best = i, h
		}
	}
	return src, best
}

// step runs the earliest event and reports whether there was one.
func (e *Engine) step() bool {
	var fn func()
	if !e.draining {
		src, head := e.next()
		if e.draining = e.instant.len() > 0 && (head == nil || head.at > e.now); !e.draining {
			if head == nil {
				return false
			}
			var ev event
			if src == laneCount {
				ev = e.popHeap()
			} else {
				ev = e.popLane(src)
			}
			e.now, fn = ev.at, ev.fn
		}
	}
	if e.draining {
		fn = e.instant.pop()
		e.draining = e.instant.len() > 0
	}
	e.Executed++
	if e.MaxEvents != 0 && e.Executed > e.MaxEvents {
		panic(fmt.Sprintf("sim: watchdog tripped after %d events at t=%d", e.Executed, e.now))
	}
	fn()
	return true
}

// popLane removes and returns the head of lane i; the lane must be
// non-empty.
func (e *Engine) popLane(i int) event {
	q := &e.lanes[i].q
	ev := q.pop()
	if q.len() == 0 {
		e.busy &^= 1 << i
	}
	return ev
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// popHeap removes and returns the heap minimum; the heap must be non-empty.
func (e *Engine) popHeap() event {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	ev := h[last]
	h[last] = event{} // drop the callback reference
	h = h[:last]
	e.heap = h
	if last == 0 {
		return top
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&ev) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = ev
	return top
}
