package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share its
// trace id (the op index); a root span has parent 0.
type span struct {
	TraceID  int64  `json:"trace_id"`
	SpanID   int64  `json:"span_id"`
	ParentID int64  `json:"parent_id"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory until the run ends. It is
// safe for the loop, the writer and the serve goroutine to add concurrently.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one span and returns its id.
func (r *recorder) add(traceID, parentID int64, name string, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		TraceID: traceID, SpanID: id, ParentID: parentID, Name: name,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open reserves a span whose end is not known yet, so that spans recorded
// while it runs can name it as their parent; finish closes it.
func (r *recorder) open(traceID, parentID int64, name string) int64 {
	return r.add(traceID, parentID, name, r.epoch, r.epoch)
}

func (r *recorder) finish(id int64, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].StartNs = start.Sub(r.epoch).Nanoseconds()
	r.spans[id-1].EndNs = end.Sub(r.epoch).Nanoseconds()
}

// traceOf returns the trace id of a recorded span.
func (r *recorder) traceOf(id int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].TraceID
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, cursor := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, cursor), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.SpanID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span, one
// thread lane per trace id, ids and self time in args.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: s.TraceID,
			Args: map[string]int64{
				"trace_id": s.TraceID, "span_id": s.SpanID, "parent_id": s.ParentID,
				"start_ns": s.StartNs, "end_ns": s.EndNs, "self_ns": self[s.SpanID],
			},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
}
