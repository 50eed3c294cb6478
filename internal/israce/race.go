//go:build race

// Package israce reports whether the race detector is compiled in. Tests
// that count allocations through a sync.Pool consult it: under the detector
// the pool drops a quarter of all Puts at random, so "a released batch's
// memory comes back" stops being a fact a gate can hold the code to.
package israce

// Enabled is true when the binary was built with -race.
const Enabled = true
