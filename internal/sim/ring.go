package sim

// ring is a growable FIFO over a power-of-two circular buffer. Pushing and
// popping allocate nothing once the buffer has reached the high-water mark of
// the queue it backs, and a popped slot is zeroed so the ring never pins a
// callback or payload it no longer holds.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// peek returns the oldest element without removing it; the ring must be
// non-empty.
func (r *ring[T]) peek() *T { return &r.buf[r.head] }

// pop removes and returns the oldest element; the ring must be non-empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	n := copy(buf, r.buf[r.head:])
	copy(buf[n:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
