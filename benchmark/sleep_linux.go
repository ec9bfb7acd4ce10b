package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper sleeps until a due time with tens-of-µs accuracy even when the
// process is otherwise idle. time.Sleep cannot: an idle Go process waits
// for its next timer inside epoll_wait, whose timeout has millisecond
// granularity, so wake-ups run up to 1 ms late (measured here: p50 580 µs
// at GOMAXPROCS=1) — as large as the latencies the open loop measures. A
// timerfd is a file descriptor, so its expiry ends the same epoll_wait
// immediately (measured: p50 40 µs), and it costs no spinning thread,
// which a one-processor generator could not afford.
type sleeper struct {
	f   *os.File // nil: timerfd unavailable, fall back to time.Sleep
	fd  uintptr  // f's descriptor, kept because f.Fd() would switch it to blocking mode
	buf [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

func newSleeper() *sleeper {
	const clockMonotonic, nonblockCloexec = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return &sleeper{}
	}
	// A non-blocking descriptor handed to os.NewFile is served by the
	// runtime's poller: Read parks the goroutine, not the thread.
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}
}

func (s *sleeper) until(due time.Time) {
	d := time.Until(due)
	if d <= 0 {
		return
	}
	if s.f != nil {
		its := itimerspec{value: syscall.NsecToTimespec(int64(d))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
		if errno == 0 {
			if _, err := s.f.Read(s.buf[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(time.Until(due))
}

func (s *sleeper) close() {
	if s.f != nil {
		s.f.Close()
	}
}
