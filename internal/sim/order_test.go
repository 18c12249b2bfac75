package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The order oracle: random schedules run on the Engine and on a reference
// that keeps its calendar as a plain list and picks the (at, seq) minimum by
// scanning it. Execution order, Now() and the pending count at each event,
// and Executed must match exactly — the heap, the fixed-delay lanes and the merge between
// them are invisible — and the clock never moves backwards.

// child is one scheduling call an event's handler makes.
type child struct {
	atNow bool // At(Now()) rather than After(delay)
	// align is At(t) for t = Now()+delay rounded up to a multiple of 4: an
	// absolute time that other delays, scheduled from other instants, also
	// land on.
	align bool
	delay Duration
}

// at is the timestamp the call asks for when made at now.
func (c child) at(now Time) Time {
	switch {
	case c.atNow:
		return now
	case c.align:
		return (now + Time(c.delay) + 3) &^ 3
	}
	return now + Time(c.delay)
}

// plan is what the handler of event id does when it runs. It depends only on
// (seed, id), so both sides replay the same behaviour.
type plan struct {
	children []child
}

// mix is a splitmix64 stream: cheap enough to seed one per event.
type mix uint64

func (m *mix) Intn(n int) int {
	*m += 0x9e3779b97f4a7c15
	z := uint64(*m)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// Handler delays. Both palettes are small, so timestamps collide constantly,
// and weighted to zero, which is what chains hand-offs inside handlers. The
// narrow one fits in the lanes; the wide one has more distinct delays than
// there are lanes, so some events go to the heap and drained lanes are
// re-keyed.
var (
	narrowDelays = []Duration{0, 0, 0, 1, 1, 2, 3, 5, 8}
	wideDelays   = []Duration{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13}
)

func planFor(seed int64, id int) plan {
	rng := mix(seed<<20 + int64(id))
	var p plan
	delays := narrowDelays
	if seed%2 == 0 {
		delays = wideDelays
	}
	for n := rng.Intn(4); n > 0; n-- {
		c := child{delay: delays[rng.Intn(len(delays))]}
		switch rng.Intn(6) {
		case 0:
			c = child{atNow: true}
		case 1:
			c.align = true
		}
		p.children = append(p.children, c)
	}
	return p
}

type ran struct {
	id      int
	now     Time
	pending int // events still queued when it ran
}

// scheduler is the surface the driver needs from either side.
type scheduler interface {
	Now() Time
	schedule(c child)
	Run() Time
	executed() uint64
	log() []ran
}

// budget caps the events one schedule creates so every chain terminates.
const orderBudget = 600

// engineSide drives the real Engine.
type engineSide struct {
	*Engine
	seed   int64
	nextID int
	trace  []ran
}

func (s *engineSide) schedule(c child) {
	if s.nextID >= orderBudget {
		return
	}
	id := s.nextID
	s.nextID++
	fn := func() {
		s.trace = append(s.trace, ran{id, s.Engine.Now(), pending(s.Engine)})
		for _, c := range planFor(s.seed, id).children {
			s.schedule(c)
		}
	}
	if c.atNow || c.align {
		s.At(c.at(s.Engine.Now()), fn)
	} else {
		s.After(c.delay, fn)
	}
}
func (s *engineSide) executed() uint64 { return s.Executed }
func (s *engineSide) log() []ran       { return s.trace }

// refSide is the reference model.
type refSide struct {
	seed   int64
	nextID int
	now    Time
	seq    uint64
	ran    uint64
	cal    []refEvent
	trace  []ran
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (s *refSide) Now() Time        { return s.now }
func (s *refSide) executed() uint64 { return s.ran }
func (s *refSide) log() []ran       { return s.trace }

func (s *refSide) schedule(c child) {
	if s.nextID >= orderBudget {
		return
	}
	s.seq++
	s.cal = append(s.cal, refEvent{at: c.at(s.now), seq: s.seq, id: s.nextID})
	s.nextID++
}

// Run runs the (at, seq)-least event until the calendar is empty.
func (s *refSide) Run() Time {
	for len(s.cal) > 0 {
		best := 0
		for i, ev := range s.cal {
			if ev.at < s.cal[best].at || (ev.at == s.cal[best].at && ev.seq < s.cal[best].seq) {
				best = i
			}
		}
		ev := s.cal[best]
		s.cal = append(s.cal[:best], s.cal[best+1:]...)
		s.now = ev.at
		s.ran++
		s.trace = append(s.trace, ran{ev.id, s.now, len(s.cal)})
		for _, c := range planFor(s.seed, ev.id).children {
			s.schedule(c)
		}
	}
	return s.now
}

// drive replays one seeded schedule: rounds of top-level scheduling from
// outside a run (at the instant the last run left the clock on, or later)
// followed by Run. It fails t if the clock ever moves backwards.
func drive(t testing.TB, seed int64, s scheduler) (states []string) {
	rng := rand.New(rand.NewSource(seed))
	var last Time
	for round := 0; round < 40; round++ {
		for n := 1 + rng.Intn(5); n > 0; n-- {
			switch rng.Intn(5) {
			case 0:
				s.schedule(child{atNow: true})
			case 1:
				s.schedule(child{delay: 0})
			case 2:
				s.schedule(child{align: true, delay: Duration(rng.Intn(12))})
			default:
				s.schedule(child{delay: Duration(rng.Intn(12))})
			}
		}
		end := s.Run()
		if s.Now() < last {
			t.Fatalf("seed %d: round %d: clock went back from %d to %d", seed, round, last, s.Now())
		}
		last = s.Now()
		states = append(states, fmt.Sprintf("round %d: end %d now %d executed %d", round, end, s.Now(), s.executed()))
	}
	for i, r := range s.log() {
		if i > 0 && r.now < s.log()[i-1].now {
			t.Fatalf("seed %d: event %d ran at %d, after an event at %d", seed, i, r.now, s.log()[i-1].now)
		}
	}
	return states
}

// checkOrder runs seed's schedule on both sides and fails t on the first
// difference. It returns the events run.
func checkOrder(t testing.TB, seed int64) int {
	t.Helper()
	eng := &engineSide{Engine: NewEngine(), seed: seed}
	ref := &refSide{seed: seed}
	got := drive(t, seed, eng)
	want := drive(t, seed, ref)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: engine %q, reference %q", seed, got[i], want[i])
		}
	}
	gl, wl := eng.log(), ref.log()
	if len(gl) != len(wl) {
		t.Fatalf("seed %d: engine ran %d events, reference %d", seed, len(gl), len(wl))
	}
	for i := range wl {
		if gl[i] != wl[i] {
			t.Fatalf("seed %d: event %d: engine ran id %d at %d with %d pending, reference id %d at %d with %d",
				seed, i, gl[i].id, gl[i].now, gl[i].pending, wl[i].id, wl[i].now, wl[i].pending)
		}
	}
	return len(wl)
}

func TestOrderMatchesReference(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 200; seed++ {
		total += checkOrder(t, seed)
	}
	if total < 200*100 {
		t.Errorf("schedules too small to mean anything: %d events over 200 seeds", total)
	}
}

// FuzzOrderMatchesReference widens the oracle past the fixed seeds.
func FuzzOrderMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, -7, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkOrder(t, seed) })
}
