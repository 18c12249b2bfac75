package fault

import (
	"sync"
	"testing"
)

func TestDeterministicSequence(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("draw %d: %v != %v with equal seeds", i, av, bv)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() == c.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/1000 identical draws across different seeds", same)
	}
}

func TestForkIndependentOfDrawPosition(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		a.Float64() // advance only a
	}
	fa, fb := a.Fork("shard3"), b.Fork("shard3")
	for i := 0; i < 100; i++ {
		if av, bv := fa.Float64(), fb.Float64(); av != bv {
			t.Fatalf("fork draw %d differs after parent advanced", i)
		}
	}
	if fa.Fork("x").Float64() != fb.Fork("x").Float64() {
		t.Error("nested forks differ after the parent advanced")
	}
}

// drawn reports whether in has made exactly n draws: each one advances the
// state by the same odd increment.
func drawn(in *Injector, n uint64) bool { return in.state == in.seed+n*0x9e3779b97f4a7c15 }

func TestForkLabelsDiverge(t *testing.T) {
	root := New(7)
	a, b := root.Fork("shard0"), root.Fork("shard1")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/1000 identical draws across fork labels", same)
	}
}

func TestHitRate(t *testing.T) {
	in := New(99)
	const n = 100_000
	hits := 0
	for i := 0; i < n; i++ {
		if in.Hit(0.1) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.09 || got > 0.11 {
		t.Errorf("10%% rate hit %.4f of draws", got)
	}
	if in.Hit(0) {
		t.Error("zero rate hit")
	}
	if in.Hit(1.1) != true || !drawn(in, n+1) {
		t.Error("rate ≥ 1 must always hit and consume one draw")
	}
	zero := New(5)
	if zero.Hit(0); !drawn(zero, 0) {
		t.Error("zero rate consumed a draw")
	}
}

func TestIntnBounds(t *testing.T) {
	in := New(1)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := in.Intn(8)
		if v < 0 || v >= 8 {
			t.Fatalf("Intn(8) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("Intn(8) produced only %d distinct values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	in.Intn(0)
}

// TestConcurrentDraws exercises the injector under the race detector: draws
// from many goroutines must be safe and account every draw.
func TestConcurrentDraws(t *testing.T) {
	in := New(3)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				in.Hit(0.5)
			}
		}()
	}
	wg.Wait()
	if !drawn(in, workers*per) {
		t.Errorf("%d concurrent draws not all accounted", workers*per)
	}
}
