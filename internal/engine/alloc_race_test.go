//go:build race

package engine

// raceEnabled: see alloc_norace_test.go.
const raceEnabled = true
