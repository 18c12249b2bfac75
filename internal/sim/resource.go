package sim

import "fmt"

// Resource models a hardware unit with a fixed number of identical servers
// (e.g. a flash plane with one page buffer, a channel bus with one lane, a
// DMA engine with N contexts). Acquire requests are granted FIFO.
type Resource struct {
	e        *Engine
	name     string
	capacity int
	busy     int
	waiters  ring[func()]
	// freeHolds recycles the per-Hold records, so a steady stream of holds
	// allocates nothing once the peak number in flight has been reached.
	freeHolds []*hold
}

// hold is the state of one Hold call from request to release. Its one
// callback, step, is bound when the record is first allocated and reused
// with it: the first call after a grant starts the hold, the second ends it.
type hold struct {
	r       *Resource
	d       Duration
	done    func()
	running bool
	step    func()
}

// NewResource creates a resource with the given server count (capacity >= 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	return &NewResources(e, capacity, name)[0]
}

// NewResources creates one resource per name, each with the given server
// count, in a single slab: a model of thousands of identical units (the
// planes of a flash array) builds them with one allocation.
func NewResources(e *Engine, capacity int, names ...string) []Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource capacity %d < 1", capacity))
	}
	rs := make([]Resource, len(names))
	for i, name := range names {
		rs[i] = Resource{e: e, name: name, capacity: capacity}
	}
	return rs
}

// Acquire requests one server. fn runs (possibly immediately, possibly at a
// later virtual time) once a server is granted. The holder must call Release
// exactly once when done.
func (r *Resource) Acquire(fn func()) {
	if r.busy < r.capacity {
		r.busy++
		fn()
		return
	}
	r.waiters.push(fn)
}

// Release returns one server to the pool and hands it to the oldest waiter,
// if any. Releasing an idle resource panics.
func (r *Resource) Release() {
	if r.busy <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if r.waiters.len() > 0 {
		// Hand the server directly to the next waiter: busy count is
		// unchanged.
		// Run the waiter as a fresh event so deeply chained handoffs
		// do not grow the call stack.
		r.e.After(0, r.waiters.pop())
		return
	}
	r.busy--
}

// Hold acquires a server, keeps it busy for d, releases it, and then calls
// done (which may be nil). It is the common pattern for fixed-latency units.
func (r *Resource) Hold(d Duration, done func()) {
	var h *hold
	if n := len(r.freeHolds); n > 0 {
		h = r.freeHolds[n-1]
		r.freeHolds = r.freeHolds[:n-1]
	} else {
		h = &hold{r: r}
		h.step = h.advance
	}
	h.d, h.done = d, done
	r.Acquire(h.step)
}

func (h *hold) advance() {
	if !h.running {
		h.running = true
		h.r.e.After(h.d, h.step)
		return
	}
	r, done := h.r, h.done
	h.done, h.running = nil, false
	r.freeHolds = append(r.freeHolds, h)
	r.Release()
	if done != nil {
		done()
	}
}

// Link models a bandwidth-limited, FIFO-serialized transfer medium such as a
// flash channel bus, a DRAM interface, or a PCIe link. A transfer of n bytes
// occupies the link for n/bandwidth seconds.
type Link struct {
	res          *Resource
	perByteDelay float64 // picoseconds per byte
}

// NewLink creates a link with the given bandwidth in bytes per second.
func NewLink(e *Engine, name string, bytesPerSec float64) *Link {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("sim: link %q bandwidth %v <= 0", name, bytesPerSec))
	}
	return &Link{
		res:          NewResource(e, name, 1),
		perByteDelay: float64(Second) / bytesPerSec,
	}
}

// TransferTime returns how long moving n bytes takes with an idle link.
func (l *Link) TransferTime(n int64) Duration {
	return Duration(float64(n)*l.perByteDelay + 0.5)
}

// Transfer moves n bytes across the link and calls done when the last byte
// arrives. Transfers queue FIFO behind in-flight ones.
func (l *Link) Transfer(n int64, done func()) {
	if n < 0 {
		panic("sim: negative transfer size")
	}
	l.res.Hold(l.TransferTime(n), done)
}
