//go:build !race

// Package racetest tells tests whether the race detector is on. The heaviest
// deterministic sweeps skip under it (they are single-stream replays the
// detector can only slow down, and they run in full in the non-race tier-1
// step), and allocation guards skip because the detector's instrumentation
// allocates on its own.
package racetest

// Enabled reports whether this binary was built with the race detector.
const Enabled = false
