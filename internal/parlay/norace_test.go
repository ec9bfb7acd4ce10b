//go:build !race

package parlay

// raceEnabled reports whether the race detector is active. TestForkAllocs
// skips its allocation counts under the detector, whose instrumentation
// allocates on its own.
const raceEnabled = false
