package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"repro/internal/sim"
)

// DefaultTraceCap bounds a Tracer's retained spans. One engine of a
// paper-scale sweep at a 1 024-feature window records 8 K–165 K spans (one
// per page read); the cap keeps the trace buffer (and the exported file)
// bounded while counting what was dropped, so a truncated trace is visible
// rather than silent.
const DefaultTraceCap = 1 << 17

// traceChunk is the number of records per storage chunk (32 KB of records).
const traceChunk = 1 << 10

// Span is one interval on the simulated clock: a query stage, a flash page
// read, a shard's slice of a cluster fan-out, a proto retry.
type Span struct {
	// Name is the event name (the stage taxonomy constants, usually).
	Name string
	// Cat is the category lane ("core", "flash", "cluster", "proto").
	Cat string
	// TID groups spans onto one track in the trace viewer: the query ID for
	// core stages, the channel for flash reads, the shard index for cluster
	// fan-outs.
	TID int64
	// Start is the span's start on the simulated clock.
	Start sim.Time
	// Dur is the span's simulated duration.
	Dur sim.Duration
	// Args are optional key-value annotations shown by the trace viewer.
	Args map[string]string
}

// Tracer collects spans up to a capacity. Safe for concurrent use; a nil
// Tracer is a no-op, so instrumented layers call it unconditionally.
//
// A span is stored as a pointer-free record in a fixed-size chunk, so the
// collector never scans the chunks, and a full chunk is never copied or
// cleared again: the always-on tracer costs one chunk allocation per
// traceChunk spans and only as much memory as it has spans. A record's
// strings and args sit in a side table entry shared by consecutive spans
// that have the same name, category and no args, as every flash read does.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	chunks  [][]record // every chunk but the last is full
	metas   []spanMeta
	n       int // retained spans
	dropped int64
	// onDrop, when set, is told of every dropped span.
	onDrop *Counter
}

// record is a retained span without its pointers.
type record struct {
	tid   int64
	start sim.Time
	dur   sim.Duration
	meta  int // index into Tracer.metas
}

// spanMeta is the pointer-holding part of one or more consecutive spans.
type spanMeta struct {
	name, cat string
	args      map[string]string
}

// NewTracer returns a tracer retaining up to capacity spans
// (≤ 0 means DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{cap: capacity}
}

// Interval is a span's track, start and duration, for AddIntervals.
type Interval struct {
	TID   int64
	Start sim.Time
	Dur   sim.Duration
}

// Add records one span, dropping it (and counting the drop) past capacity.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.add(s.Name, s.Cat, s.Args, []Interval{{TID: s.TID, Start: s.Start, Dur: s.Dur}})
	t.mu.Unlock()
}

// AddIntervals records one span named name in category cat, with no args,
// per interval: what as many Add calls would keep and drop, under one lock.
func (t *Tracer) AddIntervals(name, cat string, iv []Interval) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.add(name, cat, nil, iv)
	t.mu.Unlock()
}

// add stores the spans that fit under the cap and drops the rest; t.mu must
// be held.
func (t *Tracer) add(name, cat string, args map[string]string, iv []Interval) {
	keep := min(len(iv), t.cap-t.n)
	if drop := len(iv) - keep; drop > 0 {
		t.dropped += int64(drop)
		t.onDrop.Add(int64(drop))
	}
	if keep == 0 {
		return
	}
	m := len(t.metas) - 1
	if args != nil || m < 0 || t.metas[m].args != nil || t.metas[m].name != name || t.metas[m].cat != cat {
		t.metas = append(t.metas, spanMeta{name: name, cat: cat, args: args})
		m++
	}
	for _, v := range iv[:keep] {
		last := len(t.chunks) - 1
		if last < 0 || len(t.chunks[last]) == cap(t.chunks[last]) {
			t.chunks = append(t.chunks, make([]record, 0, min(traceChunk, t.cap-t.n)))
			last++
		}
		t.chunks[last] = append(t.chunks[last], record{tid: v.TID, start: v.Start, dur: v.Dur, meta: m})
		t.n++
	}
}

// CountDrops makes the tracer add every span it drops from now on to c, so
// a truncated trace shows up in the metrics export as well as in the trace
// file.
func (t *Tracer) CountDrops(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onDrop = c
}

// Dropped returns how many spans were discarded at capacity.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a copy of the retained spans in arrival order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return nil
	}
	out := make([]Span, 0, t.n)
	for _, c := range t.chunks {
		for _, r := range c {
			m := &t.metas[r.meta]
			out = append(out, Span{Name: m.name, Cat: m.cat, TID: r.tid, Start: r.start, Dur: r.dur, Args: m.args})
		}
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" complete events; timestamps and
// durations in microseconds, per the trace-event format spec).
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container format, which lets the file carry
// metadata alongside the event array.
type chromeTrace struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteChromeTrace exports the spans as a Chrome trace-event JSON file,
// loadable in chrome://tracing or Perfetto. Categories become pids (one
// process lane per instrumented layer) and TIDs become threads, so a query's
// stages render as one track and the flash channels as parallel tracks.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	pids := map[string]int{}
	trace := chromeTrace{
		TraceEvents:     make([]traceEvent, 0, len(spans)),
		DisplayTimeUnit: "ms",
	}
	for _, s := range spans {
		pid, ok := pids[s.Cat]
		if !ok {
			pid = len(pids) + 1
			pids[s.Cat] = pid
		}
		trace.TraceEvents = append(trace.TraceEvents, traceEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			Ts:   float64(s.Start) / 1e6, // ps → µs
			Dur:  float64(s.Dur) / 1e6,
			Pid:  pid,
			Tid:  s.TID,
			Args: s.Args,
		})
	}
	if d := t.Dropped(); d > 0 {
		trace.OtherData = map[string]string{
			"droppedSpans": strconv.FormatInt(d, 10),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}
