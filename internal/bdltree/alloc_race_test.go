//go:build race

package bdltree

// raceEnabled: see alloc_norace_test.go.
const raceEnabled = true
