// Package fault provides the seeded, deterministic fault-injection engine
// shared by the wire protocol, the flash array, and the sharded cluster.
// Real storage models are only trustworthy when exercised under degraded
// conditions, so every failure path in the reproduction draws its faults
// from one of these injectors: a fixed seed yields a fixed fault schedule,
// making degraded-mode results exactly reproducible (and a zero rate yields
// the unfaulted behavior bit-for-bit).
//
// Determinism under concurrency comes from forking: Fork derives an
// independent stream from the parent's seed and a label (not from the
// parent's draw position), so concurrent consumers — one per shard, one per
// transport, one per flash array — each own a private stream whose draws do
// not depend on goroutine interleaving.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
)

// ErrInjected marks an error produced by fault injection rather than a real
// failure; consumers wrap it so tests and callers can errors.Is it.
var ErrInjected = errors.New("injected fault")

// Injector is a deterministic seeded random stream. All methods are safe for
// concurrent use, but concurrent draws race for positions in the stream; for
// reproducible schedules give each concurrent consumer its own Fork.
type Injector struct {
	seed uint64

	mu    sync.Mutex
	state uint64
}

// New returns an injector rooted at seed.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed), state: uint64(seed)}
}

// Fork derives an independent injector from this injector's seed and the
// label. The child depends only on (seed, label) — not on how many draws the
// parent has made — so forking is itself deterministic under concurrency.
func (in *Injector) Fork(label string) *Injector {
	h := fnv.New64a()
	h.Write([]byte(label))
	seed := splitmix64(in.seed ^ h.Sum64())
	return &Injector{seed: seed, state: seed}
}

// Forkf is Fork with a formatted label.
func (in *Injector) Forkf(format string, args ...any) *Injector {
	return in.Fork(fmt.Sprintf(format, args...))
}

// next advances the splitmix64 stream.
func (in *Injector) next() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.state += 0x9e3779b97f4a7c15
	return mix(in.state)
}

// Float64 draws a uniform value in [0, 1).
func (in *Injector) Float64() float64 {
	return float64(in.next()>>11) / (1 << 53)
}

// Hit draws once and reports whether the value landed under rate. A rate
// ≤ 0 never hits without consuming a draw (so a zero-rate configuration is
// bit-identical to no injector at all); a rate ≥ 1 always hits.
func (in *Injector) Hit(rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		in.next() // keep the stream position rate-independent
		return true
	}
	return in.Float64() < rate
}

// Intn draws a value in [0, n). It panics if n <= 0.
func (in *Injector) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("fault: Intn(%d)", n))
	}
	return int(in.next() % uint64(n))
}

// splitmix64 advances x by the golden-gamma increment and mixes it.
func splitmix64(x uint64) uint64 { return mix(x + 0x9e3779b97f4a7c15) }

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
