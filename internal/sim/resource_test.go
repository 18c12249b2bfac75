package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "unit", 1)
	var done []Time
	// Three holds of 10ns each must serialize: finish at 10, 20, 30.
	for i := 0; i < 3; i++ {
		r.Hold(10*Nanosecond, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []Time{Time(10 * Nanosecond), Time(20 * Nanosecond), Time(30 * Nanosecond)}
	if len(done) != 3 {
		t.Fatalf("completed %d holds, want 3", len(done))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("hold %d done at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestResourceParallelServers(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dual", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		r.Hold(10*Nanosecond, func() { done = append(done, e.Now()) })
	}
	e.Run()
	// Two at t=10, two at t=20.
	want := []Time{Time(10 * Nanosecond), Time(10 * Nanosecond), Time(20 * Nanosecond), Time(20 * Nanosecond)}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("hold %d done at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Error("release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 did not panic")
		}
	}()
	NewResource(NewEngine(), "bad", 0)
}

// TestResourceGrantsCount: every queued Acquire is granted once, in FIFO
// order, as the holder before it releases.
func TestResourceGrantsCount(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "g", 1)
	var granted []int
	for i := 0; i < 5; i++ {
		r.Acquire(func() {
			granted = append(granted, i)
			e.After(Nanosecond, r.Release)
		})
	}
	e.Run()
	if fmt.Sprint(granted) != "[0 1 2 3 4]" || r.busy != 0 || r.waiters.len() != 0 {
		t.Errorf("granted %v, %d busy, %d waiting; want [0 1 2 3 4], 0 and 0", granted, r.busy, r.waiters.len())
	}
}

func TestLinkTransferTime(t *testing.T) {
	e := NewEngine()
	// 800 MB/s channel: 16 KiB page takes 16384/800e6 s = 20.48 us.
	l := NewLink(e, "chan", 800e6)
	got := l.TransferTime(16384)
	want := FromSeconds(16384.0 / 800e6)
	if got != want {
		t.Errorf("transfer time = %v, want %v", got, want)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "bus", 1e9) // 1 GB/s: 1000 bytes = 1us
	var done []Time
	for i := 0; i < 3; i++ {
		l.Transfer(1000, func() { done = append(done, e.Now()) })
	}
	e.Run()
	for i, want := range []Time{Time(1 * Microsecond), Time(2 * Microsecond), Time(3 * Microsecond)} {
		if done[i] != want {
			t.Errorf("transfer %d done at %v, want %v", i, done[i], want)
		}
	}
}

func TestLinkBadBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth did not panic")
		}
	}()
	NewLink(NewEngine(), "bad", 0)
}

// Property: total completion time of n serialized holds equals n*d.
func TestResourceSerializationProperty(t *testing.T) {
	f := func(n uint8, dns uint16) bool {
		if n == 0 || dns == 0 {
			return true
		}
		e := NewEngine()
		r := NewResource(e, "p", 1)
		d := Duration(dns) * Nanosecond
		for i := 0; i < int(n); i++ {
			r.Hold(d, nil)
		}
		end := e.Run()
		return end == Time(int64(n)*int64(d))
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
