package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestQueueFIFO: tokens go to the waiting consumers in the order they
// asked, one each.
func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "q", 4)
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		q.Get(func() { got = append(got, i) })
	}
	for i := 0; i < 3; i++ {
		q.Put(nil)
	}
	e.Run()
	if fmt.Sprint(got) != "[0 1 2]" || q.Len() != 0 {
		t.Fatalf("served %v with %d left, want [0 1 2] and none", got, q.Len())
	}
}

func TestQueueGetBeforePut(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "q", 1)
	var gotAt Time = -1
	q.Get(func() { gotAt = e.Now() })
	e.After(5*Nanosecond, func() { q.Put(nil) })
	e.Run()
	if gotAt != Time(5*Nanosecond) {
		t.Errorf("delivered at %v, want 5ns", gotAt)
	}
	if q.Len() != 0 {
		t.Errorf("a handed-over token stayed in the queue: len %d", q.Len())
	}
}

func TestQueueBackpressure(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "q", 2)
	var accepted []Time
	// Three puts into a capacity-2 queue: third must wait for a get.
	for i := 0; i < 3; i++ {
		q.Put(func() { accepted = append(accepted, e.Now()) })
	}
	e.After(10*Nanosecond, func() {
		q.Get(func() {})
	})
	e.Run()
	if len(accepted) != 3 {
		t.Fatalf("accepted %d puts, want 3", len(accepted))
	}
	if accepted[2] != Time(10*Nanosecond) {
		t.Errorf("third put accepted at %v, want 10ns", accepted[2])
	}
}

func TestQueueZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 did not panic")
		}
	}()
	NewQueue(NewEngine(), "bad", 0)
}

// Property: whatever the interleaving of puts and gets and the capacity,
// every get is served exactly once and every put is accepted, in the order
// the puts were made, without the queue ever holding more than capacity.
func TestQueueDeliveryProperty(t *testing.T) {
	f := func(nPuts uint8, capacity uint8, seed int64) bool {
		n := int(nPuts%32) + 1
		cap := int(capacity%8) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		q := NewQueue(e, "p", cap)
		var puts, gets, accepted, served []int
		over := false
		for i := 0; i < n; i++ {
			i := i
			e.After(Duration(rng.Intn(2*n))*Nanosecond, func() {
				puts = append(puts, i)
				q.Put(func() { accepted = append(accepted, i) })
				over = over || q.Len() > cap
			})
			e.After(Duration(rng.Intn(2*n))*Nanosecond, func() {
				gets = append(gets, i)
				q.Get(func() { served = append(served, i) })
			})
		}
		e.Run()
		// A consumer handed a token runs as an event, so a get made at the
		// same instant may be served before it: served is a permutation.
		sort.Ints(served)
		sort.Ints(gets)
		if fmt.Sprint(served) != fmt.Sprint(gets) || fmt.Sprint(accepted) != fmt.Sprint(puts) {
			return false
		}
		return len(served) == n && q.Len() == 0 && !over
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
