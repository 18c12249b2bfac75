package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Self time is a span's duration minus what its direct children cover, with
// overlapping children counted once and grandchildren not at all.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{TraceID: 1, SpanID: 1, ParentID: 0, Name: "op", StartNs: 0, EndNs: 100},
		{TraceID: 1, SpanID: 2, ParentID: 1, Name: "a", StartNs: 10, EndNs: 40},
		{TraceID: 1, SpanID: 3, ParentID: 1, Name: "b", StartNs: 30, EndNs: 60}, // overlaps a by 10
		{TraceID: 1, SpanID: 4, ParentID: 2, Name: "a.inner", StartNs: 15, EndNs: 25},
		{TraceID: 1, SpanID: 5, ParentID: 0, Name: "probe", StartNs: 200, EndNs: 250}, // sibling of the root
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 30, 4: 10, 5: 50} {
		if self[id] != want {
			t.Errorf("span %d: self time %d ns, want %d", id, self[id], want)
		}
	}
}

func TestChromeTraceCarriesEverySpan(t *testing.T) {
	rec := newRecorder()
	root := rec.open(7, 0, "op")
	rec.add(7, root, "child", rec.epoch.Add(10), rec.epoch.Add(20))
	rec.finish(root, rec.epoch, rec.epoch.Add(100))
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int64
			Args map[string]int64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	rootEv, childEv := doc.TraceEvents[0], doc.TraceEvents[1]
	if rootEv.Name != "op" || rootEv.Ph != "X" || rootEv.Tid != 7 || rootEv.Args["self_ns"] != 90 {
		t.Errorf("root event %+v", rootEv)
	}
	if childEv.Args["parent_id"] != rootEv.Args["span_id"] || childEv.Args["trace_id"] != 7 {
		t.Errorf("child event %+v does not hang under the root", childEv)
	}
}
