//go:build !race

package wire

// raceEnabled reports whether the race detector is active. The codec
// allocation test always runs its round trip (so the -race CI job covers
// it) but only asserts the count without the detector, whose
// instrumentation allocates on its own.
const raceEnabled = false
