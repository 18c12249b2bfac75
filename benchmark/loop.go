package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// instance is one set-up workload: a system that has its data, model and
// warm-up behind it and is ready for the closed loop.
type instance struct {
	// functional says the workload scores materialised vectors; the
	// alternative is declared databases, where only the event model runs.
	functional bool
	// simOps is how many leading ops make the simulated-clock figures.
	simOps int
	// op runs one closed-loop operation, submit to results in hand. A traced
	// op takes the traced route where the workload has one.
	op func(i int, traced bool) (opOut, error)
	// appendOp, when set, is a second closed-loop client that runs beside
	// the first until the loop ends (multi_tight_ingest's writer).
	appendOp func(j int) error
	// check applies the per-result invariants to an op.
	check func(c *checker, o opOut)
	// verify compares one op with the brute-force oracle.
	verify func(c *checker, o opOut)
	// rerankPerMiss is the exact-rerank candidate count of a miss.
	rerankPerMiss int
	// finishSim lets a workload whose results lack stages and energy (the
	// wire does not carry them) fill them from the engine's public totals
	// once the simOps-th op is done.
	finishSim func(a *simAcc) error
	// enableTrace, when set, opens the workload's traced route before a
	// traced loop.
	enableTrace func(rec *recorder)
	// rootSpan is the root span of the traced op in flight (0 if none), for
	// spans recorded on other goroutines while the op runs.
	rootSpan atomic.Int64
	// layers fills the per-layer metrics after a traced loop.
	layers func(lc *layerCtx) error
	// close stops what setup started.
	close func()
}

// sample is one timed op of the loop.
type sample struct {
	start, end time.Duration // since the loop began
	traced     bool
}

// loopResult is everything the timed loop produced.
type loopResult struct {
	samples []sample
	appends []time.Duration // writer latencies, in completion order
	elapsed time.Duration
	sim     *simAcc
	scanned int64 // features scanned by every op of the loop
	events  uint64
	kept    []opOut // ops kept for the oracle and the probe spans
	mallocs uint64
	allocKB float64
	checker *checker
}

// keepEvery spaces the ops kept for the oracle check and the probe spans;
// only ops with at least one cache miss are kept, since a hit has no exact
// answer to compare with, and in a traced loop only traced ops, since the
// probe spans need a root span to sit beside.
const keepEvery = 16

// maxKept bounds the oracle work done after the loop.
const maxKept = 6

// runLoop drives the closed loop for at least seconds, and until simOps ops
// are done. With rec set every second op is traced, with a root span around
// it, so the traced and untraced halves see the same drift of the machine and
// their medians give the tracing overhead.
func runLoop(inst *instance, seconds float64, rec *recorder) loopResult {
	res := loopResult{sim: newSimAcc(), checker: &checker{}}
	window := time.Duration(seconds * float64(time.Second))

	var stop atomic.Bool
	var wg sync.WaitGroup
	var writerErr error
	if inst.appendOp != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; !stop.Load(); j++ {
				t0 := time.Now()
				if err := inst.appendOp(j); err != nil {
					writerErr = err
					return
				}
				res.appends = append(res.appends, time.Since(t0))
			}
		}()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	nextKeep := 0
	for i := 0; ; i++ {
		if i >= inst.simOps && time.Since(begin) >= window {
			break
		}
		traced := rec != nil && i%2 == 1
		var root int64
		if traced {
			root = rec.open(int64(i), 0, "op")
			inst.rootSpan.Store(root)
		}
		t0 := time.Now()
		out, err := inst.op(i, traced)
		t1 := time.Now()
		if traced {
			rec.finish(root, t0, t1)
			inst.rootSpan.Store(0)
		}
		res.samples = append(res.samples, sample{start: t0.Sub(begin), end: t1.Sub(begin), traced: traced})
		res.checker.attempted++
		if err != nil {
			res.checker.fail("op %d: %v", i, err)
			continue
		}
		out.index, out.rootSpan = i, root
		inst.check(res.checker, out)
		for _, r := range out.results {
			res.scanned += r.FeaturesScanned
		}
		res.events += out.events
		if i < inst.simOps {
			res.sim.fold(out, inst.rerankPerMiss)
			if i == inst.simOps-1 && inst.finishSim != nil {
				if err := inst.finishSim(res.sim); err != nil {
					res.checker.fail("op %d: %v", i, err)
				}
			}
		}
		if i >= nextKeep && len(res.kept) < maxKept && hasMiss(out) && traced == (rec != nil) {
			res.kept = append(res.kept, out)
			nextKeep = i + keepEvery
		}
	}
	res.elapsed = time.Since(begin)
	runtime.ReadMemStats(&after)
	stop.Store(true)
	wg.Wait()
	if writerErr != nil {
		res.checker.attempted++
		res.checker.fail("writer: %v", writerErr)
	}
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	return res
}

// loopStats is the closed-loop accounting of a set of samples.
type loopStats struct {
	ops      int
	p50, p90 time.Duration
	beyond90 int     // samples above the p90
	opsPerS  float64 // ops completed per second of the loop
	busy     time.Duration
	idleFrac float64 // share of the loop not spent inside an op
}

// account computes the closed-loop figures of the samples selected by keep.
func account(samples []sample, elapsed time.Duration, keep func(sample) bool) loopStats {
	var ms []float64
	var st loopStats
	for _, s := range samples {
		st.busy += s.end - s.start
		if keep(s) {
			ms = append(ms, float64(s.end-s.start))
		}
	}
	sort.Float64s(ms)
	st.ops = len(ms)
	if st.ops > 0 {
		st.p50 = time.Duration(percentile(ms, 50))
		st.p90 = time.Duration(percentile(ms, 90))
		st.beyond90 = samplesBeyond(st.ops, 90)
	}
	if elapsed > 0 {
		st.opsPerS = float64(len(samples)) / elapsed.Seconds()
		st.idleFrac = 1 - float64(st.busy)/float64(elapsed)
	}
	return st
}

func hasMiss(o opOut) bool {
	for _, r := range o.results {
		if !r.CacheHit {
			return true
		}
	}
	return false
}

func durationsMean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

func durationsP50(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	ms := make([]float64, len(d))
	for i, v := range d {
		ms[i] = float64(v)
	}
	sort.Float64s(ms)
	return time.Duration(percentile(ms, 50))
}
