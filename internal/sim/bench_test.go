package sim

import "testing"

// BenchmarkEventThroughput measures raw event-calendar throughput with one
// event pending — the floor of what an event costs.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(Nanosecond, tick)
	e.Run()
}

// BenchmarkDeepCalendar keeps 2 048 events pending at as many distinct
// delays, so nearly every event misses the lanes and pays a full heap sift:
// the floor for delays the lanes do not cover.
func BenchmarkDeepCalendar(b *testing.B) {
	const depth = 2048
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n+depth <= b.N {
			e.After(Duration(1+n*7919%depth)*Nanosecond, tick)
		}
	}
	for i := 0; i < depth && i < b.N; i++ {
		e.After(Duration(1+i)*Nanosecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkFixedDelayCalendar keeps 2 048 events pending over four fixed
// delays, the shape of a chip-level scan (128 accelerators × 16 reads in
// flight, each a sense, a transfer, a compute batch and hand-offs): every
// event goes through a lane, none through the heap.
func BenchmarkFixedDelayCalendar(b *testing.B) {
	const depth = 2048
	delays := [...]Duration{53 * Microsecond, 20 * Microsecond, 3 * Microsecond, 0}
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n+depth <= b.N {
			e.After(delays[n%len(delays)], tick)
		}
	}
	for i := 0; i < depth && i < b.N; i++ {
		e.After(delays[i%len(delays)], tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkResourceHold(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "bench", 4)
	for i := 0; i < b.N; i++ {
		r.Hold(Nanosecond, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkQueuePutGet(b *testing.B) {
	e := NewEngine()
	q := NewQueue(e, "bench", 64)
	taken := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Put(nil)
		q.Get(taken)
		if i%1024 == 0 {
			e.Run()
		}
	}
	e.Run()
}
