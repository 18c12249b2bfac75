package sim

import "fmt"

// Queue is a bounded FIFO connecting a producer process to a consumer process
// in the simulation, such as the FLASH_DFV queue that decouples flash
// prefetching from accelerator compute (paper §4.4, Fig. 5). The timing model
// moves no data, so an entry is a token: the queue counts them.
//
// Put blocks (virtually) when the queue is full; Get blocks when it is empty.
// Both take completion callbacks instead of blocking the real goroutine.
type Queue struct {
	e        *Engine
	capacity int
	items    int
	getters  ring[func()]
	putters  ring[func()] // blocked producers' accepted callbacks, or nil
}

// NewQueue creates a bounded queue. capacity must be >= 1.
func NewQueue(e *Engine, name string, capacity int) *Queue {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: queue %q capacity %d < 1", name, capacity))
	}
	return &Queue{e: e, capacity: capacity}
}

// Len returns the current occupancy.
func (q *Queue) Len() int { return q.items }

// Put inserts a token, invoking accepted once space exists (immediately if
// the queue is not full). accepted may be nil.
func (q *Queue) Put(accepted func()) {
	// Fast path: a consumer is already waiting, hand the token over without
	// ever occupying a slot.
	if q.getters.len() > 0 {
		g := q.getters.pop()
		if accepted != nil {
			q.e.After(0, accepted)
		}
		q.e.After(0, g)
		return
	}
	if q.items < q.capacity {
		q.items++
		if accepted != nil {
			q.e.After(0, accepted)
		}
		return
	}
	q.putters.push(accepted)
}

// TryGet takes a token if the queue holds one, admitting the oldest blocked
// producer into the freed slot, and reports whether it took one.
func (q *Queue) TryGet() bool {
	if q.items == 0 {
		// A producer blocks only on a full queue, and a freed slot admits
		// one at once, so an empty queue has none blocked.
		return false
	}
	if q.putters.len() > 0 {
		if p := q.putters.pop(); p != nil {
			q.e.After(0, p)
		}
	} else {
		q.items--
	}
	return true
}

// Get takes a token, invoking fn once one exists (immediately if the queue
// is non-empty).
func (q *Queue) Get(fn func()) {
	if q.TryGet() {
		fn()
		return
	}
	q.getters.push(fn)
}
