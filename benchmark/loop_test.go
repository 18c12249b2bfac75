package main

import (
	"testing"
	"time"

	deepstore "repro"
)

// A closed loop's throughput counts every op over the loop's wall time, its
// idle share is the time not inside an op, and percentiles come only from
// the samples asked for.
func TestClosedLoopAccounting(t *testing.T) {
	ms := time.Millisecond
	samples := []sample{
		{start: 0, end: 10 * ms},
		{start: 10 * ms, end: 40 * ms, traced: true},
		{start: 50 * ms, end: 70 * ms}, // 10 ms of driver time before it
		{start: 70 * ms, end: 90 * ms, traced: true},
	}
	all := account(samples, 100*ms, func(sample) bool { return true })
	if all.ops != 4 || all.opsPerS != 40 {
		t.Errorf("ops %d at %v/s, want 4 at 40/s", all.ops, all.opsPerS)
	}
	if all.busy != 80*ms || all.idleFrac < 0.1999 || all.idleFrac > 0.2001 {
		t.Errorf("busy %v idle %v, want 80ms and 0.2", all.busy, all.idleFrac)
	}
	if all.p50 != 20*ms || all.p90 != 30*ms {
		t.Errorf("p50 %v p90 %v, want 20ms and 30ms", all.p50, all.p90)
	}
	untraced := account(samples, 100*ms, func(s sample) bool { return !s.traced })
	if untraced.ops != 2 || untraced.p50 != 10*ms {
		t.Errorf("untraced half: %d ops, p50 %v, want 2 and 10ms", untraced.ops, untraced.p50)
	}
}

// The loop runs until both the window has passed and simOps ops are done,
// folds only the first simOps ops into the simulated figures, and counts a
// failing op as attempted and failed without folding it.
func TestRunLoopWindowAndSimOps(t *testing.T) {
	calls := 0
	inst := &instance{
		simOps: 5,
		op: func(i int, _ bool) (opOut, error) {
			calls++
			time.Sleep(time.Millisecond)
			r := &deepstore.QueryResult{Latency: deepstore.SimMicrosecond}
			return opOut{results: []*deepstore.QueryResult{r}}, nil
		},
		check:  func(*checker, opOut) {},
		verify: func(*checker, opOut) {},
	}
	res := runLoop(inst, 0, nil) // no window: exactly simOps ops
	if calls != 5 || res.sim.ops != 5 || len(res.samples) != 5 {
		t.Errorf("zero window: %d calls, %d sim ops, %d samples, want 5 each", calls, res.sim.ops, len(res.samples))
	}
	calls = 0
	res = runLoop(inst, 0.03, nil)
	if calls <= 5 || res.sim.ops != 5 || res.elapsed < 30*time.Millisecond {
		t.Errorf("30 ms window: %d calls, %d sim ops, elapsed %v", calls, res.sim.ops, res.elapsed)
	}
	if res.checker.attempted != calls || res.checker.failed != 0 {
		t.Errorf("attempted %d failed %d, want %d and 0", res.checker.attempted, res.checker.failed, calls)
	}
}
