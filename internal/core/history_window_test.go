package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/qhist"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The retention-window suites (DESIGN.md §15): what the engine keeps, mines,
// charges and persists once the history store has wrapped. They run on the
// multi-query suite's 16-dimension toy database and SCN, which answers a
// query in tens of microseconds, so whole windows go through the real query
// path.

// histWindow is qhist's retention window, restated from its definition; the
// suites check that the store wraps exactly there.
const histWindow = 32 * qhist.DefaultHalfLifeRecords

// newWindowEngine builds the multi-query suite's toy engine with its 8-entry
// perfect-QCN cache; two calls with the same options build bit-identical
// engines.
func newWindowEngine(t *testing.T, opts Options) histTestEnv {
	t.Helper()
	ds, model, db := newEqEngine(t, opts, 16, true)
	return histTestEnv{ds: ds, model: model, db: uint64(db)}
}

// windowTrace is a Zipfian stream of n toy queries over 40 intents — five
// times the suites' cache, so learned admission rejects and evicts throughout.
func windowTrace(n int, seed int64) [][]float32 {
	tr := workload.GenerateTrace(workload.TraceConfig{
		Universe: 40, Length: n, Dist: workload.Zipfian, Alpha: 1.1, Seed: seed,
	})
	out := make([][]float32, n)
	for i, q := range tr.Queries {
		out[i] = workload.QueryVector(q, 16, 4)
	}
	return out
}

func windowOptions(admission CacheAdmission) Options {
	opts := DefaultOptions()
	opts.History = true
	opts.CacheAdmission = admission
	return opts
}

// TestHistoryWindowBounded runs three windows of queries through one engine:
// the store wraps at exactly the window and stays there, what it reports,
// snapshots and checkpoints stops growing, the simulated hist_append charge
// is one constant while the store fills and one larger constant — the
// retiring record's read and un-fold — once it has wrapped, and the window's
// counter and gauges follow.
func TestHistoryWindowBounded(t *testing.T) {
	e := newWindowEngine(t, windowOptions(AdmissionLearned))
	const k = 4
	perRecord := int64(qhist.RecordBytes + qhist.PayloadBytes(16, k))
	var filling, full []appendCharge
	for i, qfv := range windowTrace(3*histWindow, 3) {
		r := e.query(t, qfv, k)
		if got, want := e.ds.hist.Len(), min(i+1, histWindow); got != want {
			t.Fatalf("query %d: store holds %d records, want %d", i, got, want)
		}
		if got, want := e.ds.hist.First(), uint64(max(i+1-histWindow, 0)); got != want {
			t.Fatalf("query %d: oldest retained seq %d, want %d", i, got, want)
		}
		if sum := obs.SumStages(r.Stages); sum != r.Latency {
			t.Fatalf("query %d: stages sum to %v, latency %v", i, sum, r.Latency)
		}
		for _, st := range r.Stages {
			if st.Name != obs.StageHistAppend {
				continue
			}
			if i < histWindow {
				filling = append(filling, appendCharge{i, st.Dur})
			} else {
				full = append(full, appendCharge{i, st.Dur})
			}
		}
	}
	if len(filling) != histWindow || len(full) != 2*histWindow {
		t.Fatalf("%d hist_append stages while the window fills, %d after", len(filling), len(full))
	}
	for _, phase := range [][]appendCharge{filling, full} {
		for _, c := range phase {
			if c.dur != phase[0].dur {
				t.Fatalf("hist_append at query %d costs %v, %v at query %d: not constant",
					c.query, c.dur, phase[0].dur, phase[0].query)
			}
		}
	}
	if full[0].dur <= filling[0].dur {
		t.Fatalf("hist_append costs %v on a full window, no more than %v while it fills", full[0].dur, filling[0].dur)
	}

	hs := e.ds.HistoryStats()
	if hs.Records != histWindow || hs.Appended != 3*histWindow || hs.Retired != 2*histWindow {
		t.Fatalf("stats %+v after %d queries", hs, 3*histWindow)
	}
	if hs.HotBytes+hs.ColdBytes != histWindow*perRecord {
		t.Fatalf("store reports %d bytes, want %d", hs.HotBytes+hs.ColdBytes, histWindow*perRecord)
	}
	snap, err := e.ds.HistorySnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if limit := histWindow*perRecord + 64; int64(len(snap)) > limit {
		t.Fatalf("%d-byte history image, want at most %d", len(snap), limit)
	}
	if recs := e.ds.HistoryRecords(); len(recs) != histWindow || recs[0].Seq != 2*histWindow {
		t.Fatalf("HistoryRecords returns %d records from seq %d", len(recs), recs[0].Seq)
	}
	ms := e.ds.MetricsSnapshot()
	if got := ms.Counters["core_hist_retired"]; got != 2*histWindow {
		t.Fatalf("core_hist_retired %d, want %d", got, 2*histWindow)
	}
	if got := ms.Counters["core_hist_appends"]; got != 3*histWindow {
		t.Fatalf("core_hist_appends %d, want %d", got, 3*histWindow)
	}
	if got := ms.Gauges["core_hist_retained_records"]; got != histWindow {
		t.Fatalf("core_hist_retained_records %v, want %d", got, histWindow)
	}
	if got := ms.Gauges["core_hist_retained_bytes"]; got != float64(histWindow*perRecord) {
		t.Fatalf("core_hist_retained_bytes %v, want %d", got, histWindow*perRecord)
	}

	// The gauges follow a store that is replaced, too.
	if err := e.ds.RestoreHistory([]byte("not an image")); !errors.Is(err, ErrHistoryCorrupt) {
		t.Fatalf("garbage image: %v", err)
	}
	ms = e.ds.MetricsSnapshot()
	if r, b := ms.Gauges["core_hist_retained_records"], ms.Gauges["core_hist_retained_bytes"]; r != 0 || b != 0 {
		t.Fatalf("gauges read %v records, %v bytes after a cold start", r, b)
	}
}

// appendCharge is one hist_append stage, and the query it was charged to.
type appendCharge struct {
	query int
	dur   sim.Duration
}

// TestHistoryWindowModelFollowsWindow: a learned engine's admission model is
// MineGroups of the retained records after every query, before and after the
// window wraps; an LRU engine keeps no model at all and its hist_append
// charge is the DRAM write alone, the learned engine's plus the fold.
func TestHistoryWindowModelFollowsWindow(t *testing.T) {
	for _, admission := range []CacheAdmission{AdmissionLearned, AdmissionLRU} {
		t.Run(admission.String(), func(t *testing.T) {
			e := newWindowEngine(t, windowOptions(admission))
			trace := windowTrace(histWindow+600, 9)
			write := e.ds.dev.DRAM.TransferTime(qhist.RecordBytes + int64(qhist.PayloadBytes(16, 4)))
			for i, qfv := range trace {
				var charge obs.Stage
				for _, st := range e.query(t, qfv, 4).Stages {
					if st.Name == obs.StageHistAppend {
						charge = st
					}
				}
				if admission == AdmissionLRU {
					if e.ds.histMined != nil || charge.Dur != write {
						t.Fatalf("query %d: LRU engine holds a %d-group model, hist_append %v, the write alone %v",
							i, len(e.ds.histMined), charge.Dur, write)
					}
					continue
				}
				if charge.Dur <= write {
					t.Fatalf("query %d: hist_append %v charges no fold over the %v write", i, charge.Dur, write)
				}
				requireModelIsWindow(t, fmt.Sprintf("query %d", i), e.ds)
			}
			if hs := e.ds.HistoryStats(); hs.Retired != 600 || hs.Groups != len(e.ds.histMined) {
				t.Fatalf("stats %+v after %d queries", hs, len(trace))
			}
		})
	}
}

// TestHistoryWindowPrefetchAndReorg: the two history consumers read the
// window, not everything ever asked. An intent that dominated the stream and
// then stopped is prefetched while the window remembers it and is gone — from
// the cache warm-up and from the heat that orders the database — once a
// window of other traffic has passed.
func TestHistoryWindowPrefetchAndReorg(t *testing.T) {
	e := newWindowEngine(t, windowOptions(AdmissionLearned))
	early := workload.QueryVector(workload.Query{SemanticID: 1000}, 16, 4) // outside windowTrace's 40 intents
	for i := 0; i < 200; i++ {
		e.query(t, early, 4)
	}
	earlyGroup := qhist.GroupOf(early)
	earlyTop := e.ds.HistoryRecords()[0].TopFeature
	rewarm := func() bool {
		t.Helper()
		if err := e.ds.SetQC(perfectQCN(16), 1.0, 8, 0.2); err != nil {
			t.Fatal(err)
		}
		n, err := e.ds.PrefetchHistory(8)
		if err != nil || n < 1 {
			t.Fatalf("prefetched %d entries: %v", n, err)
		}
		return e.query(t, early, 4).CacheHit
	}
	if !rewarm() {
		t.Fatal("the stream's dominant intent missed right after a prefetch")
	}

	// More than a window of other traffic: every record of the early intent
	// retires, bar the one re-ask above, which goes too.
	trace := windowTrace(histWindow+1, 21)
	for _, qfv := range trace {
		if qhist.GroupOf(qfv) == earlyGroup {
			t.Fatal("window trace re-asks the early intent")
		}
		e.query(t, qfv, 4)
	}
	for _, r := range e.ds.HistoryRecords() {
		if r.Group == earlyGroup {
			t.Fatalf("record %d of the early intent outlived the window", r.Seq)
		}
	}
	if _, ok := e.ds.histMined[earlyGroup]; ok {
		t.Fatal("the admission model still scores a group with no retained record")
	}
	if rewarm() {
		t.Fatal("prefetch re-warmed an intent the window no longer holds")
	}

	// Reorg orders by the window's heat: the permutation is the one the
	// retained records alone produce.
	records := e.ds.HistoryRecords()
	ident := e.ds.dbs[ftlID(e.db)].ident
	order, err := e.ds.ReorgByHistory(ftlID(e.db))
	if err != nil {
		t.Fatal(err)
	}
	heat := qhist.FeatureHeat(records, ident, 16)
	var retainedVotes int64
	for _, h := range heat {
		retainedVotes += h
	}
	if retainedVotes == 0 || retainedVotes > histWindow {
		t.Fatalf("%d heat votes from a %d-record window", retainedVotes, histWindow)
	}
	seen := make([]bool, len(order))
	for _, src := range order {
		if src < 0 || src >= len(order) || seen[src] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[src] = true
	}
	if hottest := order[0]; heat[hottest] == 0 {
		t.Fatalf("feature %d leads the reorganized database with no retained vote (early intent's winner was %d)", hottest, earlyTop)
	}
	if r := e.query(t, trace[0], 4); len(r.TopK) != 4 {
		t.Fatalf("post-reorg query returned %d results", len(r.TopK))
	}
}

// sameHistoryModuloClock compares two engines' history images record by
// record and payload by payload, ignoring the completion timestamp of the
// records appended from seq `since` on: a restored engine's simulated clock
// restarts with the device, everything else it writes must match.
func sameHistoryModuloClock(t *testing.T, a, b *DeepStore, since uint64) {
	t.Helper()
	load := func(ds *DeepStore) *qhist.Store {
		img, err := ds.HistorySnapshot()
		if err != nil {
			t.Fatal(err)
		}
		st, err := qhist.Restore(img)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sa, sb := load(a), load(b)
	if sa.First() != sb.First() || sa.Len() != sb.Len() {
		t.Fatalf("windows [%d,+%d) and [%d,+%d)", sa.First(), sa.Len(), sb.First(), sb.Len())
	}
	for i, ra := range sa.Records() {
		rb := sb.Records()[i]
		pa, errA := sa.Payload(ra)
		pb, errB := sb.Payload(rb)
		if errA != nil || errB != nil || !bytes.Equal(pa, pb) {
			t.Fatalf("record %d: payloads differ (%v, %v)", ra.Seq, errA, errB)
		}
		if ra.Seq >= since {
			ra.Time, rb.Time = 0, 0
		}
		if ra != rb {
			t.Fatalf("record %d: %+v on the original, %+v on the restored engine", ra.Seq, ra, rb)
		}
	}
}
