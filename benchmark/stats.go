package main

import (
	"math"
	"sort"
)

// sample is one timed operation: when it completed (ns since the phase
// started) and how long it took (ns).
type sample struct {
	at  int64
	dur int64
}

// pctile returns the p-th percentile (0..100, linear interpolation between
// ranks) of an ascending-sorted slice; 0 for an empty one.
func pctile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := p / 100 * float64(len(sorted)-1)
	lo := int(idx)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return pctile(s, 50)
}

// midmean is the interquartile mean: the mean of the middle half of the
// values. It is what repeated timings of one job are reduced to. This
// host's processors flip between two speeds every few seconds (a
// register-only loop takes 44 or 57 ms), so repeats of a job form two
// clusters, and a median — which sits in whichever cluster holds the
// majority — jumps between them from run to run; the midmean moves
// smoothly with the mix and still ignores the outer quarter on each side.
func midmean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(max(hi-lo, 1))
}

// geomean is the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// windowsFor picks how many equal time windows the samples of a phase that
// ran in one piece (the open loop) are cut into: up to 40, fewer when a
// window would hold under 50 samples. (A phase that ran in segments has its
// segments for windows: timeline.) The
// reported percentile is the median of the window percentiles, which is
// steadier than one percentile over the whole phase: the system stalls for
// tens of ms a few times in ten seconds (a slow fsync — one commit in 64
// carries one — with every request on the connection queued behind it, a
// ladder rebuild, a frozen vCPU), a stall spoils the tail of the window it
// falls in, and whether a phase saw two or four of them would otherwise
// decide its p99. The windows must be short for that: with one commit in 64
// slow, a window of 300 updates has its p99 inside the stalled few (2 ms
// in one run and 50 ms in the next), a third-of-a-second window usually holds
// none of them. A window of 50 samples does not have a p99 in the strict
// sense — it is the window's slowest but one — so what the windows leave
// out is printed beside the gated value: the p99 over the whole phase and
// the share of operations slower than stallLimit.
func windowsFor(n int) int {
	return max(1, min(40, n/50))
}

// stallLimit is the latency past which an operation counts as stalled: the
// 5 ms limit the issue's rate sweep judges k-NN p99 by.
const stallLimit = 5e6 // ns

// windowPctiles cuts samples into w equal time windows over [0, span) and
// returns, for each requested percentile, the MEDIAN over windows of that
// window's percentile. One GC pause or scheduler hiccup lands in one
// window and moves one window's tail; the median across windows is what
// makes a tail percentile steady enough to gate on. Empty windows are
// skipped; used is how many windows were not.
func windowPctiles(samples []sample, span int64, w int, ps ...float64) (out []float64, used int) {
	buckets := make([][]float64, w)
	for _, s := range samples {
		b := int(s.at * int64(w) / max(span, 1))
		b = max(0, min(w-1, b))
		buckets[b] = append(buckets[b], float64(s.dur))
	}
	for _, b := range buckets {
		sort.Float64s(b)
	}
	out = make([]float64, len(ps))
	for pi, p := range ps {
		var per []float64
		for _, b := range buckets {
			if len(b) > 0 {
				per = append(per, pctile(b, p))
			}
		}
		out[pi], used = median(per), len(per)
	}
	return out, used
}

// latencySummary is one class of timed operations: the gated values, the
// same as measured (before the host yardstick is applied, see hostRef), and
// the whole-phase tail the windows leave out.
type latencySummary struct {
	n         int
	windows   int
	perSec    float64    // completions per second
	p50       float64    // ns, median over windows
	p95, p99  float64    // the same
	raw       [4]float64 // perSec, p50, p95, p99 as measured
	wholeP99  float64    // ns, over every sample of the phase, as measured
	wholeP999 float64
	stalled   float64 // share of samples slower than stallLimit
}

// summarize reduces a phase that ran in one piece, with no yardstick: the
// open loop, and pooled durations that were scaled one by one.
func summarize(samples []sample, span int64) latencySummary {
	ps, w := windowPctiles(samples, span, windowsFor(len(samples)), 50, 95, 99)
	s := wholePhase(samples)
	s.windows, s.perSec, s.p50, s.p95, s.p99 = w, float64(len(samples))/(float64(span)/1e9), ps[0], ps[1], ps[2]
	s.raw = [4]float64{s.perSec, s.p50, s.p95, s.p99}
	return s
}

// wholePhase fills in what is reported beside the gated values.
func wholePhase(samples []sample) latencySummary {
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = float64(s.dur)
	}
	sort.Float64s(all)
	slow := len(all) - sort.SearchFloat64s(all, stallLimit)
	return latencySummary{
		n: len(samples), wholeP99: pctile(all, 99), wholeP999: pctile(all, 99.9),
		stalled: float64(slow) / float64(max(len(all), 1)),
	}
}

// tails prints what is reported beside a class's gated values.
func (r *run) tails(class string, s latencySummary) {
	if r.ref != nil {
		r.info("raw."+class+"_per_s", s.raw[0], "1/s")
		r.info("raw."+class+"_p50_us", s.raw[1]/1e3, "us")
		r.info("raw."+class+"_p95_us", s.raw[2]/1e3, "us")
		r.info("raw."+class+"_p99_us", s.raw[3]/1e3, "us")
	}
	r.info(class+"_p99_us", s.p99/1e3, "us")
	r.info(class+"_samples", float64(s.n), "count")
	r.info(class+"_windows", float64(s.windows), "count")
	r.info(class+"_whole_p99_us", s.wholeP99/1e3, "us")
	r.info(class+"_whole_p999_us", s.wholeP999/1e3, "us")
	r.info(class+"_over_5ms_frac", s.stalled, "frac")
}
