//go:build race

package wire

// raceEnabled: see alloc_norace_test.go.
const raceEnabled = true
