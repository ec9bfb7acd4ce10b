//go:build !race

package bdltree

// raceEnabled reports whether the race detector is active. The allocation
// regression tests always run their query paths (so the -race CI job
// covers them) but only assert exact counts without the detector, whose
// instrumentation allocates on its own.
const raceEnabled = false
