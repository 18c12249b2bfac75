package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/racetest"
	"repro/internal/sim"
)

func TestTracerCollectsAndCaps(t *testing.T) {
	tr := NewTracer(2)
	tr.Add(Span{Name: "a", Cat: "core", Start: 0, Dur: sim.Millisecond})
	tr.Add(Span{Name: "b", Cat: "core", Start: sim.Time(sim.Millisecond), Dur: sim.Millisecond})
	tr.Add(Span{Name: "c", Cat: "core"})
	if tr.n != 2 {
		t.Errorf("len = %d, want capped at 2", tr.n)
	}
	if tr.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", tr.Dropped())
	}
	spans := tr.Spans()
	if spans[0].Name != "a" || spans[1].Name != "b" {
		t.Errorf("spans = %+v", spans)
	}

	// nil tracer is a no-op everywhere.
	var nilTr *Tracer
	nilTr.Add(Span{})
	if nilTr.Spans() != nil || nilTr.Dropped() != 0 {
		t.Error("nil tracer not inert")
	}
}

// TestWriteChromeTrace validates the exported file against the trace-event
// container format: a JSON object with a traceEvents array of "X" events
// whose ts/dur are microseconds.
func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(0)
	tr.Add(Span{Name: "scan", Cat: "core", TID: 1, Start: 0, Dur: 2 * sim.Millisecond,
		Args: map[string]string{"mode": "batched"}})
	tr.Add(Span{Name: "flash_read", Cat: "flash", TID: 3,
		Start: sim.Time(sim.Microsecond), Dur: 53 * sim.Microsecond})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(got.TraceEvents) != 2 {
		t.Fatalf("%d events", len(got.TraceEvents))
	}
	ev := got.TraceEvents[0]
	if ev.Ph != "X" || ev.Name != "scan" || ev.Dur != 2000 { // 2 ms = 2000 µs
		t.Errorf("event 0 = %+v", ev)
	}
	if ev.Args["mode"] != "batched" {
		t.Errorf("args lost: %+v", ev.Args)
	}
	fl := got.TraceEvents[1]
	if fl.Ts != 1 || fl.Dur != 53 || fl.Tid != 3 {
		t.Errorf("event 1 = %+v", fl)
	}
	if ev.Pid == fl.Pid {
		t.Error("categories share a pid lane")
	}
	if got.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", got.DisplayTimeUnit)
	}
}

// TestTracerSpansAcrossChunks: spans stored across several chunks come back
// in arrival order, and the length, the cap (here not a multiple of the
// chunk size) and the drop count are what a single slice would give.
func TestTracerSpansAcrossChunks(t *testing.T) {
	const capacity = 2*traceChunk + 5
	tr := NewTracer(capacity)
	for i := 0; i < capacity+7; i++ {
		tr.Add(Span{Name: "s", TID: int64(i)})
	}
	if tr.n != capacity || tr.Dropped() != 7 {
		t.Fatalf("len %d dropped %d, want %d and 7", tr.n, tr.Dropped(), capacity)
	}
	spans := tr.Spans()
	if len(spans) != capacity {
		t.Fatalf("Spans() returned %d", len(spans))
	}
	for i, s := range spans {
		if s.TID != int64(i) {
			t.Fatalf("span %d has TID %d: arrival order lost", i, s.TID)
		}
	}
}

// TestTracerAddIsAmortisedAllocationFree: the always-on tracer pays one chunk
// per traceChunk spans and never moves a span it has stored.
func TestTracerAddIsAmortisedAllocationFree(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const spans = 100_000
	allocs := testing.AllocsPerRun(1, func() {
		tr := NewTracer(0)
		for i := 0; i < spans; i++ {
			tr.Add(Span{Name: SpanFlashRead, Cat: "flash", TID: int64(i)})
		}
	})
	if perSpan := allocs / spans; perSpan >= 0.01 {
		t.Errorf("Tracer.Add: %v allocs per span, want < 0.01", perSpan)
	}

	tr := NewTracer(0)
	tr.Add(Span{Name: "first", TID: 42})
	first := &tr.chunks[0][0]
	for i := 0; i < 10*traceChunk; i++ {
		tr.Add(Span{Name: "later"})
	}
	if &tr.chunks[0][0] != first || first.tid != 42 || tr.metas[first.meta].name != "first" {
		t.Error("a retained span was copied when the tracer grew")
	}
}

// TestTracerSpansRoundTrip: Spans() rebuilds exactly the spans that were
// added — names and categories that change from span to span or hold for a
// run of spans, args (the same map, not a copy) — up to the cap, while a run
// of spans that share a name and a category and have no args shares one
// side-table entry.
func TestTracerSpansRoundTrip(t *testing.T) {
	const capacity = traceChunk + 3
	shared := map[string]string{"mode": "batched"}
	for round := 0; round < 2; round++ {
		tr := NewTracer(capacity)
		var want []Span
		for i := 0; i < capacity+9; i++ {
			s := Span{Name: SpanFlashRead, Cat: "flash", TID: int64(i % 7), Start: sim.Time(3 * i), Dur: sim.Duration(i + round)}
			switch (i / 3) % 6 { // runs of three
			case 1:
				s.Name = "scan"
			case 2:
				s.Cat = "core"
			case 3:
				s.Args = shared
			case 4:
				s.Args = map[string]string{"i": strconv.Itoa(i)}
			case 5:
				s.Name, s.Cat = "", ""
			}
			tr.Add(s)
			if i < capacity {
				want = append(want, s)
			}
		}
		got := tr.Spans()
		if len(got) != len(want) || tr.Dropped() != 9 {
			t.Fatalf("round %d: %d spans, %d dropped; want %d and 9", round, len(got), tr.Dropped(), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d: span %d = %+v, want %+v", round, i, got[i], want[i])
			}
			if want[i].Args != nil && reflect.ValueOf(got[i].Args).Pointer() != reflect.ValueOf(want[i].Args).Pointer() {
				t.Fatalf("round %d: span %d: args were copied", round, i)
			}
		}
	}

	tr := NewTracer(0)
	for i := 0; i < 1000; i++ {
		tr.Add(Span{Name: SpanFlashRead, Cat: "flash", TID: int64(i)})
	}
	if len(tr.metas) != 1 {
		t.Errorf("1 000 flash reads use %d side-table entries, want 1", len(tr.metas))
	}
}

// TestAddIntervalsIsRepeatedAdd: a batch of intervals records and drops
// exactly what one Add per interval would, across chunks, the cap and the
// side table, and counts its drops in the registry the same way.
func TestAddIntervalsIsRepeatedAdd(t *testing.T) {
	const capacity = traceChunk + 40
	one, batched := NewTracer(capacity), NewTracer(capacity)
	c1, c2 := NewRegistry().Counter("d"), NewRegistry().Counter("d")
	one.CountDrops(c1)
	batched.CountDrops(c2)
	var iv []Interval
	for i := 0; i < 3*traceChunk; i++ {
		iv = append(iv, Interval{TID: int64(i % 5), Start: sim.Time(i), Dur: sim.Duration(2*i + 1)})
	}
	for i, n := range []int{0, 7, traceChunk - 3, 1, 90, traceChunk} { // batch sizes
		one.Add(Span{Name: "stage", Cat: "core", TID: int64(i)})
		batched.Add(Span{Name: "stage", Cat: "core", TID: int64(i)})
		for _, v := range iv[:n] {
			one.Add(Span{Name: SpanFlashRead, Cat: "flash", TID: v.TID, Start: v.Start, Dur: v.Dur})
		}
		batched.AddIntervals(SpanFlashRead, "flash", iv[:n])
		iv = iv[n:]
	}
	if !reflect.DeepEqual(one.Spans(), batched.Spans()) || one.Dropped() != batched.Dropped() ||
		len(one.metas) != len(batched.metas) || c1.Value() != c2.Value() || c1.Value() != one.Dropped() {
		t.Errorf("batched: %d spans, %d dropped (counter %d), %d side-table entries; one by one: %d, %d (%d), %d",
			batched.n, batched.Dropped(), c2.Value(), len(batched.metas), one.n, one.Dropped(), c1.Value(), len(one.metas))
	}
	if one.Dropped() == 0 {
		t.Error("the batches never crossed the cap")
	}
}

// TestTracerCountsDropsInRegistry: the drop counter is 0 until the cap is
// hit, then moves with every dropped span.
func TestTracerCountsDropsInRegistry(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(3)
	tr.CountDrops(reg.Counter("obs_tracer_dropped_spans"))
	for i := 0; i < 3; i++ {
		tr.Add(Span{Name: "kept"})
	}
	if got := reg.Snapshot().Counters["obs_tracer_dropped_spans"]; got != 0 {
		t.Errorf("under the cap: dropped counter = %d, want 0", got)
	}
	tr.Add(Span{Name: "dropped"})
	tr.Add(Span{Name: "dropped"})
	if got := reg.Snapshot().Counters["obs_tracer_dropped_spans"]; got != 2 || tr.Dropped() != 2 {
		t.Errorf("past the cap: dropped counter = %d, Dropped() = %d, want 2 and 2", got, tr.Dropped())
	}
}

// BenchmarkTracerAdd records flash-read spans, the always-on tracer's hottest
// call, starting a new tracer at the cap so that every Add stores a record.
func BenchmarkTracerAdd(b *testing.B) {
	tr := NewTracer(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%DefaultTraceCap == 0 {
			tr = NewTracer(0)
		}
		tr.Add(Span{Name: SpanFlashRead, Cat: "flash", TID: int64(i & 31), Start: sim.Time(i), Dur: 53 * sim.Microsecond})
	}
}
