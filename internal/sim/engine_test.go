package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30*Nanosecond, func() { order = append(order, 3) })
	e.After(10*Nanosecond, func() { order = append(order, 1) })
	e.After(20*Nanosecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != Time(30*Nanosecond) {
		t.Errorf("end time = %d, want %d", end, 30*Nanosecond)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.After(1*Microsecond, func() {
		hits = append(hits, e.Now())
		e.After(2*Microsecond, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != Time(1*Microsecond) || hits[1] != Time(3*Microsecond) {
		t.Errorf("hits = %v", hits)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(1*Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

// pending counts the events e holds: heap, lanes and the instant FIFO.
func pending(e *Engine) int {
	n := len(e.heap) + e.instant.len()
	for i := range e.lanes {
		n += e.lanes[i].q.len()
	}
	return n
}

// TestEngineStop: Run stops when the calendar is empty and returns the time
// of the last event it ran.
func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.After(1, func() { ran++; e.After(3, func() { ran++ }) })
	e.After(2, func() { ran++ })
	if end := e.Run(); end != 4 || ran != 3 || pending(e) != 0 {
		t.Errorf("Run returned %d after %d events with %d pending, want 4, 3 and 0", end, ran, pending(e))
	}
}

// TestEngineRunUntil: Run drains the calendar each time it is called; events
// scheduled from outside between runs are relative to where the last run
// left the clock.
func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := []Time{}
	rec := func() { ran = append(ran, e.Now()) }
	e.After(10*Nanosecond, rec)
	e.After(20*Nanosecond, rec)
	e.Run()
	e.After(15*Nanosecond, rec)
	e.After(5*Nanosecond, rec)
	e.At(e.Now(), rec)
	if end := e.Run(); end != Time(35*Nanosecond) {
		t.Errorf("second Run returned %d, want %d", end, 35*Nanosecond)
	}
	want := []Time{10000, 20000, 20000, 25000, 35000}
	if fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Errorf("ran at %v, want %v", ran, want)
	}
}

func TestEngineRandomOrderProperty(t *testing.T) {
	// Property: regardless of insertion order, execution order is sorted.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 50
		delays := make([]Duration, n)
		for i := range delays {
			delays[i] = Duration(rng.Int63n(1000)) * Nanosecond
		}
		var seen []Time
		for _, d := range delays {
			e.After(d, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		return sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{2500 * Picosecond, "2.500ns"},
		{3 * Microsecond, "3.000us"},
		{15 * Millisecond, "15.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// TestWatchdogTripsOnRunawayLoop: a zero-delay self-rescheduling process must
// panic with the event count in hand.
func TestWatchdogTripsOnRunawayLoop(t *testing.T) {
	t.Run("Run", func(t *testing.T) {
		e := NewEngine()
		e.MaxEvents = 100
		var spin func()
		spin = func() { e.After(0, spin) } // zero-delay self-reschedule
		e.After(1, spin)
		defer func() {
			msg, _ := recover().(string)
			if want := "watchdog tripped after 101 events"; !strings.Contains(msg, want) {
				t.Errorf("panic = %q, want it to contain %q", msg, want)
			}
			if e.Executed != 101 {
				t.Errorf("executed %d events, want 101", e.Executed)
			}
		}()
		e.Run()
	})
}

// TestPendingCountsSameInstantEvents: callbacks scheduled for the current
// instant, events in the lanes and events in the heap are all pending. The
// instant's callbacks run in call order, and at a later instant the events
// scheduled for it beforehand run before the callbacks it schedules itself.
func TestPendingCountsSameInstantEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	rec := func(name string) func() { return func() { order = append(order, name) } }
	want := 3 + 2*laneCount
	e.After(0, func() {
		order = append(order, "0:a")
		e.After(Nanosecond, rec("1ns:c"))
	})
	e.At(e.Now(), rec("0:b"))
	e.After(Nanosecond, func() {
		// 0:a and 0:b ran, 0:a scheduled 1ns:c, and this one is running.
		if got := pending(e); got != want-2 {
			t.Errorf("pending after the instant drained = %d, want %d", got, want-2)
		}
		order = append(order, "1ns:a")
		e.After(0, func() {
			if got := pending(e); got != want-4 {
				t.Errorf("pending after 1 ns drained = %d, want %d", got, want-4)
			}
			order = append(order, "1ns:instant")
		})
	})
	for i := 1; i < 2*laneCount; i++ { // more delays than lanes
		e.After(Duration(1+i)*Nanosecond, rec(fmt.Sprint(1+i, "ns")))
	}
	e.After(Nanosecond, rec("1ns:b"))
	if got := pending(e); got != want {
		t.Errorf("pending = %d, want %d", got, want)
	}
	e.Run()
	if got, want := fmt.Sprint(order[:6]), "[0:a 0:b 1ns:a 1ns:b 1ns:c 1ns:instant]"; got != want {
		t.Errorf("ran %s, want %s", got, want)
	}
	if pending(e) != 0 || e.Executed != uint64(want+2) {
		t.Errorf("after Run: pending %d, executed %d; want 0, %d", pending(e), e.Executed, want+2)
	}
}

// TestRunUntilStopKeepsClockMonotone: a callback scheduled from outside for
// the instant a Run ended on runs at that instant, after which the clock
// moves only forwards.
func TestRunUntilStopKeepsClockMonotone(t *testing.T) {
	e := NewEngine()
	var at []Time
	rec := func() { at = append(at, e.Now()) }
	e.After(2, rec)
	e.Run()
	e.After(1, rec)
	e.At(e.Now(), rec)
	e.After(0, rec)
	if end := e.Run(); end != 3 {
		t.Errorf("second Run returned %d, want 3", end)
	}
	if fmt.Sprint(at) != "[2 2 2 3]" {
		t.Errorf("ran at %v, want [2 2 2 3]", at)
	}
}

// TestLanesRekeyAfterDrain: with every lane taken, a new delay goes to the
// heap; once the lanes drain, new delays take them over, and a lane still
// holding events keeps its key.
func TestLanesRekeyAfterDrain(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	// The event at 3 drains the lanes keyed 1..3 and schedules from there.
	atThree := func() {
		rec()
		e.After(50, rec) // re-keys lane 0
		e.After(4, rec)  // joins lane 3, which still holds its event at 4
		if e.lanes[0].delay != 50 || e.lanes[3].delay != 4 || e.lanes[3].q.len() != 2 {
			t.Errorf("lane keys %d and %d (lane 3 holds %d): want 50 and 4 (2 events)",
				e.lanes[0].delay, e.lanes[3].delay, e.lanes[3].q.len())
		}
		if len(e.heap) != 2 {
			t.Errorf("heap holds %d events, want 2", len(e.heap))
		}
	}
	for d := Duration(1); d <= laneCount; d++ {
		if d == 3 {
			e.After(d, atThree)
		} else {
			e.After(d, rec)
		}
	}
	e.After(laneCount+1, rec)
	if len(e.heap) != 1 {
		t.Fatalf("heap holds %d events, want the one delay beyond the lanes", len(e.heap))
	}
	e.After(100, rec) // the heap again: lane keys 1..8 still hold events
	e.Run()
	want := []Time{1, 2, 3, 4, 5, 6, 7, 7, 8, 9, 53, 100}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ran at %v, want %v", got, want)
	}
}

// TestLaneOrderViolationPanics: lanes are sorted only because the clock is
// monotone; should it ever move back, the push that breaks a lane's order
// panics rather than running events out of (at, seq) order.
func TestLaneOrderViolationPanics(t *testing.T) {
	e := NewEngine()
	e.now = 10
	e.After(5, func() {})
	e.now = 0 // a clock bug
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "queued behind") {
			t.Errorf("panic = %q, want a lane-order violation", msg)
		}
	}()
	e.After(5, func() {})
}

func TestWatchdogAllowsNormalRuns(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 1000
	for i := 0; i < 500; i++ {
		e.After(Duration(i)*Nanosecond, func() {})
	}
	e.Run()
	if e.Executed != 500 {
		t.Errorf("executed %d", e.Executed)
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		d := FromSeconds(float64(ms) / 1000)
		return d == Duration(ms)*Millisecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
