// Package testenv exposes build-time facts and helpers the allocation
// pins share. Under -race the runtime allocates for shadow tracking, so
// the pins skip themselves there; CI runs them in a separate step
// without -race.
package testenv

import "testing"

// RaceEnabled reports whether the binary was built with -race; set by
// the build-tagged files race.go / norace.go.
const RaceEnabled = raceEnabled

// Allocs returns the total number of heap allocations made by runs
// calls of f, after a warm-up of as many calls. Unlike
// testing.AllocsPerRun, whose average truncates, it counts an
// allocation that happens on only some of the calls: an amortized map
// insert or an allocation that only larger inputs make.
func Allocs(runs int, f func()) int {
	return int(testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			f()
		}
	}))
}
