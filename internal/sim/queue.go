package sim

import "fmt"

// Queue is a bounded FIFO connecting a producer process to a consumer process
// in the simulation, such as the FLASH_DFV queue that decouples flash
// prefetching from accelerator compute (paper §4.4, Fig. 5).
//
// Put blocks (virtually) when the queue is full; Get blocks when it is empty.
// Both take completion callbacks instead of blocking the real goroutine.
type Queue[T any] struct {
	e        *Engine
	name     string
	capacity int
	items    ring[T]
	getters  ring[func(T)]
	putters  ring[pendingPut[T]]
	// handoffs holds (consumer, item) pairs whose delivery event is already
	// on the calendar; deliver is bound once so a hand-off schedules without
	// building a closure per item.
	handoffs ring[handoff[T]]
	deliver  func()

	puts, gets uint64
	// highWater tracks the maximum occupancy observed, for sizing studies.
	highWater int
}

type pendingPut[T any] struct {
	item T
	fn   func()
}

type handoff[T any] struct {
	fn   func(T)
	item T
}

// NewQueue creates a bounded queue. capacity must be >= 1.
func NewQueue[T any](e *Engine, name string, capacity int) *Queue[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: queue %q capacity %d < 1", name, capacity))
	}
	q := &Queue[T]{e: e, name: name, capacity: capacity}
	// Delivery events run in the order they were scheduled, which is the
	// order the pairs were pushed.
	q.deliver = func() {
		h := q.handoffs.pop()
		h.fn(h.item)
	}
	return q
}

// Len returns the current occupancy.
func (q *Queue[T]) Len() int { return q.items.len() }

// Capacity returns the maximum occupancy.
func (q *Queue[T]) Capacity() int { return q.capacity }

// HighWater returns the maximum occupancy ever observed.
func (q *Queue[T]) HighWater() int { return q.highWater }

// Puts returns the number of completed Put operations.
func (q *Queue[T]) Puts() uint64 { return q.puts }

// Gets returns the number of completed Get operations.
func (q *Queue[T]) Gets() uint64 { return q.gets }

// Put inserts item, invoking accepted once space exists (immediately if the
// queue is not full). accepted may be nil.
func (q *Queue[T]) Put(item T, accepted func()) {
	// Fast path: a consumer is already waiting, hand the item over without
	// ever occupying a slot.
	if q.getters.len() > 0 {
		g := q.getters.pop()
		q.puts++
		q.gets++
		if accepted != nil {
			q.e.After(0, accepted)
		}
		q.handoffs.push(handoff[T]{fn: g, item: item})
		q.e.After(0, q.deliver)
		return
	}
	if q.items.len() < q.capacity {
		q.items.push(item)
		if q.items.len() > q.highWater {
			q.highWater = q.items.len()
		}
		q.puts++
		if accepted != nil {
			q.e.After(0, accepted)
		}
		return
	}
	q.putters.push(pendingPut[T]{item: item, fn: accepted})
}

// Get removes the oldest item, invoking fn with it once one exists
// (immediately if the queue is non-empty).
func (q *Queue[T]) Get(fn func(T)) {
	if q.items.len() > 0 {
		item := q.items.pop()
		q.gets++
		// Admit a blocked producer into the freed slot.
		if q.putters.len() > 0 {
			p := q.putters.pop()
			q.items.push(p.item)
			q.puts++
			if p.fn != nil {
				q.e.After(0, p.fn)
			}
		}
		fn(item)
		return
	}
	// Empty: if a producer is blocked (possible only when capacity would
	// have been exceeded by a burst), service it directly.
	if q.putters.len() > 0 {
		p := q.putters.pop()
		q.puts++
		q.gets++
		if p.fn != nil {
			q.e.After(0, p.fn)
		}
		fn(p.item)
		return
	}
	q.getters.push(fn)
}
