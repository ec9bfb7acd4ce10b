//go:build !linux

package main

import "time"

// sleeper falls back to time.Sleep where there is no timerfd; see
// sleep_linux.go for why that is up to 1 ms late on an idle process.
type sleeper struct{}

func newSleeper() *sleeper             { return &sleeper{} }
func (s *sleeper) until(due time.Time) { time.Sleep(time.Until(due)) }
func (s *sleeper) close()              {}
