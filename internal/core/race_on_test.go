//go:build race

package core

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation (and sync.Pool's random drops under it) adds allocations
// that would fail the allocation gates.
const raceEnabled = true
