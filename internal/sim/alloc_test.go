package sim

import (
	"testing"

	"repro/internal/racetest"
)

// Allocation guards for the event kernel: with callbacks the caller bound
// once, steady-state simulation allocates nothing — no event records, no
// hand-off closures, no queue re-slicing. Each guard warms the structures to
// their high-water mark first; that growth is the only allocation allowed.

func allocsPerRun(t *testing.T, f func()) float64 {
	t.Helper()
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	f() // warm: grow the heap slice, rings and free lists
	return testing.AllocsPerRun(20, f)
}

func TestEngineSchedulesWithoutAllocating(t *testing.T) {
	e := NewEngine()
	n := 0
	tick := func() { n++ }
	var chain func()
	chain = func() {
		if n++; n%8 != 0 {
			e.After(0, chain) // same-instant FIFO
		}
	}
	got := allocsPerRun(t, func() {
		for i := 0; i < 2048; i++ {
			e.After(Duration(i*7919%1000)*Nanosecond, tick)
		}
		e.After(Microsecond, chain)
		e.At(e.Now(), chain)
		e.Run()
	})
	if got != 0 {
		t.Errorf("After+Run steady state: %v allocs per 2K-event run, want 0", got)
	}
}

// TestLanesScheduleWithoutAllocating: the flash shape (a deep calendar over
// a few fixed delays) runs entirely through the lanes, never touching the
// heap, and allocates nothing once the lane rings have grown.
func TestLanesScheduleWithoutAllocating(t *testing.T) {
	e := NewEngine()
	delays := [...]Duration{53 * Microsecond, 20 * Microsecond, 3 * Microsecond, 0}
	n := 0
	var tick func()
	tick = func() {
		if n++; n%4 != 0 {
			e.After(delays[n%4], tick)
		}
	}
	got := allocsPerRun(t, func() {
		for i := 0; i < 2048; i++ {
			e.After(delays[i%4], tick)
		}
		e.Run()
	})
	if got != 0 {
		t.Errorf("fixed-delay steady state: %v allocs per 2K-event run, want 0", got)
	}
	if cap(e.heap) != 0 {
		t.Errorf("the heap grew to %d: four fixed delays must all fit in lanes", cap(e.heap))
	}
}

func TestQueueHandsOffWithoutAllocating(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "guard", 4)
	accepted := func() {}
	taken := func() {}
	got := allocsPerRun(t, func() {
		q.Get(taken) // a consumer waiting: Put hands off directly
		q.Put(accepted)
		for i := 0; i < 12; i++ { // past capacity: producers block
			q.Put(accepted)
		}
		for i := 0; i < 12; i++ {
			q.Get(taken)
		}
		e.Run()
	})
	if got != 0 {
		t.Errorf("Queue.Put/Get: %v allocs per run, want 0", got)
	}
}

func TestResourceHoldsWithoutAllocating(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "guard", 2)
	l := NewLink(e, "guard-link", 1e9)
	done := func() {}
	got := allocsPerRun(t, func() {
		for i := 0; i < 32; i++ { // 2 servers: 30 holds wait their turn
			r.Hold(Duration(1+i%3)*Nanosecond, done)
			l.Transfer(4096, done)
		}
		e.Run()
	})
	if got != 0 {
		t.Errorf("Resource.Hold/Link.Transfer: %v allocs per run, want 0", got)
	}
}
