//go:build race

package parlay

// raceEnabled: see norace_test.go.
const raceEnabled = true
