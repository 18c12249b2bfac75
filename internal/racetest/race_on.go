//go:build race

package racetest

// Enabled reports whether this binary was built with the race detector.
const Enabled = true
