package main

import (
	"runtime"
	"sync"
	"time"
)

// hostRef measures how fast the host runs while the benchmark runs. The
// benchmark's machine is a few virtual processors of a shared host whose
// speed is not a constant: a register-only loop runs at one of two speeds
// 25 % apart and flips every few seconds (a neighbour on the sibling
// hyperthread), a cache-missing loop loses up to 36 % for tens of minutes
// when the neighbours use the memory system, for minutes at a time the
// processors are taken away altogether (the register loop at 35 % of its
// speed), and every workload here moves with them — embed-read read 58 k,
// 45 k, 41 k and 49 k k-NN/s within two hours on one commit. No estimator
// over a run's windows removes that; it is the whole run that is slow.
//
// So every run carries its own yardstick. Before and after each measured
// piece of a workload — a segment of a closed loop, a batch job, a set-up,
// a group of stages — all processors run two fixed kernels for 20 ms each
// (slice): a dependent chain of multiply-adds in registers, and a dependent
// chain of loads that miss the caches. A slice's slowdown is the time the
// kernels need now over the time they need at the nominal speeds fixed
// below, half the weight on each. A measured piece is reported at nominal
// host speed: its time divided by the slowdown around it (around: the
// median of the slice after it and the few before), its rate multiplied by
// it; a metric is the median (or midmean) over the pieces, as it would be
// without the yardstick. The measured values are printed beside the
// metrics as raw.<name>. The kernels are the benchmark's own and never
// change with the program, so a change to the program moves a metric by
// what it changed; the host's mood moves the yardstick along with the piece
// it surrounds and mostly cancels (README.md, Bounds, has both spreads of
// every metric). A nil *hostRef (traced runs, whose per-layer numbers are
// not gated) measures nothing: every slowdown is 1.
type hostRef struct {
	threads int
	each    time.Duration // how long a slice runs each kernel
	slow    []float64     // one per slice
	at      []time.Time   // when each slice ended
	reg     float64       // steps per second per thread, summed over the slices
	mem     float64
	spent   time.Duration
}

// refTable[i] is the index the memory walk visits after i. It is a global,
// not a slice: 32 MB on the garbage-collected heap let the collector keep
// as much garbage again and raised rss_mb by twice the table's size.
// Untouched (traced runs) it costs no memory.
var refTable [refTableLen]uint32

const (
	// Nominal speeds, steps per second per thread: what this host's
	// processors do in an ordinary minute. Only their ratio to the speeds
	// measured in the run enters a metric, so on another machine every
	// timed metric shifts by one constant factor.
	nominalRegSteps = 8.5e8
	nominalMemSteps = 6.0e6

	refTableLen  = 1 << 23 // 32 MB of uint32: past the 4 MB L2, like the trees
	refSliceEach = 20 * time.Millisecond

	aroundSlices = 5 // a piece is scaled by the median of at most this many slices
	aroundWindow = 5 * time.Second
)

func newHostRef(threads int) *hostRef {
	// A full-period linear congruential map over the table's indices: one
	// cycle through every entry, in an order no prefetcher follows, filled
	// in one linear pass.
	for i := range refTable {
		refTable[i] = (uint32(i)*1664525 + 1013904223) % refTableLen
	}
	return &hostRef{threads: threads, each: refSliceEach}
}

var refSink uint64 // keeps the kernels' results alive

// regSteps runs the register kernel for d and returns its steps per second.
func regSteps(d time.Duration) float64 {
	const block = 20000
	start, n, x := time.Now(), 0, uint64(1)
	for time.Since(start) < d {
		for i := 0; i < block; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		n += block
	}
	refSink += x
	return float64(n) / time.Since(start).Seconds()
}

// memSteps runs the memory walk for d from index at and returns its steps
// per second.
func memSteps(d time.Duration, at uint32) float64 {
	const block = 500
	start, n := time.Now(), 0
	for time.Since(start) < d {
		for i := 0; i < block; i++ {
			at = refTable[at]
		}
		n += block
	}
	refSink += uint64(at)
	return float64(n) / time.Since(start).Seconds()
}

// slice runs both kernels once on every processor, records the slowdown
// they saw and returns it. Call it between measured pieces, never beside one.
func (h *hostRef) slice() float64 {
	if h == nil {
		return 1
	}
	begin := time.Now()
	// serve-mixed's generator runs on one processor while it generates;
	// the yardstick is always the whole machine's.
	if old := runtime.GOMAXPROCS(0); old != h.threads {
		runtime.GOMAXPROCS(h.threads)
		defer runtime.GOMAXPROCS(old)
	}
	reg, mem := make([]float64, h.threads), make([]float64, h.threads)
	var wg sync.WaitGroup
	for t := 0; t < h.threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			reg[t] = regSteps(h.each)
			mem[t] = memSteps(h.each, uint32(t*(refTableLen/h.threads)+len(h.slow)*7919)%refTableLen)
		}(t)
	}
	wg.Wait()
	var regAll, memAll float64
	for t := range reg {
		regAll += reg[t]
		memAll += mem[t]
	}
	regAll, memAll = regAll/float64(h.threads), memAll/float64(h.threads)
	h.slow = append(h.slow, 0.5*nominalRegSteps/regAll+0.5*nominalMemSteps/memAll)
	h.reg += regAll
	h.mem += memAll
	h.at = append(h.at, time.Now())
	h.spent += h.at[len(h.at)-1].Sub(begin)
	return h.slow[len(h.slow)-1]
}

// around closes a measured piece: it takes a slice and returns the median
// of it and the up to four slices of the five seconds before it. One slice
// reads 5–8 % high or low by itself (the host flips speed between a slice
// and the piece beside it); what a piece shares with its surroundings is
// the host's state over seconds, which the median of a few slices holds and
// one slice's own noise does not enter.
func (h *hostRef) around() float64 {
	if h == nil {
		return 1
	}
	h.slice()
	n := len(h.slow)
	from := n - 1
	for from > 0 && n-from < aroundSlices && h.at[n-1].Sub(h.at[from-1]) < aroundWindow {
		from--
	}
	return median(h.slow[from:])
}

// slowdown is the median over the run's slices, printed for information;
// 1 without any.
func (h *hostRef) slowdown() float64 {
	if h == nil || len(h.slow) == 0 {
		return 1
	}
	return median(h.slow)
}
