package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/rng"
)

// sizes are the input sizes of every workload and of the ledger. The full
// sizes are what results are quoted at; the smoke sizes exist so the
// package tests can run every code path in a few seconds.
type sizes struct {
	d2         int // clustered 2-D set of embed-read, serve-mixed, ledger
	q2         int // distinct k-NN queries cycled through
	churnBase  int // uniform 3-D steady-state set of embed-churn
	loadBatch  int // points per wire request while loading the daemon
	hull2d     int // in-sphere 2-D
	hull3d     int // in-sphere 3-D
	seb        int // uniform 5-D
	kd         int // uniform 2-D: kdtree.Build + AllKNN + point queries
	bdl        int // uniform 5-D: bdltree insert / k-NN / delete in 10 % batches
	bdlQueries int
	ledgerQ    int     // queries driven through every ledger rung
	ledgerUpd  int     // update batches driven through every write rung
	knnRate    float64 // serve-mixed phase A arrivals/s
	updRate    float64
	maxChecks  int // k-NN answers verified by linear scan per run
}

var fullSizes = sizes{
	d2: 500_000, q2: 1 << 17, churnBase: 200_000, loadBatch: 10_000,
	hull2d: 1_000_000, hull3d: 100_000, seb: 1_000_000, kd: 250_000, bdl: 100_000, bdlQueries: 5_000,
	ledgerQ: 20_000, ledgerUpd: 128, knnRate: 6000, updRate: 200, maxChecks: 400,
}

var smokeSizes = sizes{
	d2: 4000, q2: 512, churnBase: 3000, loadBatch: 1000,
	hull2d: 4000, hull3d: 1500, seb: 4000, kd: 3000, bdl: 2000, bdlQueries: 200,
	ledgerQ: 200, ledgerUpd: 8, knnRate: 400, updRate: 50, maxChecks: 20,
}

const (
	knnK       = 8   // neighbours per serving query
	batchK     = 5   // neighbours per point in the paper's batch k-NN stages
	updBatch   = 512 // points per embedded update (inserted and deleted)
	updLag     = 64  // an inserted batch is deleted this many updates later
	wirePoints = 16  // points per serve-mixed insert
	shards     = 4
	// Open-loop cap: an arrival that finds this many requests in flight is
	// refused and counts as failed. It is 1.3 s of phase A's arrivals, not
	// the issue's 0.12 s (256 at 2200/s), because this host freezes a vCPU
	// for up to half a second now and then (one run in sixty), and a
	// workload on which such a run reports failed operations is one the
	// driver cannot use; the frozen requests complete late and are in the
	// latencies either way.
	inFlight = 8192
	// standing is the backlog that, present at the end of each of the last
	// three windows, marks the offered rate as more than the system sustains.
	standing = 256
)

// setups times the set-up of one workload. Set-up is a gated metric, so
// that work a later change moves out of the timed phases and into set-up
// still shows; one sample of it would be too noisy to gate on. It runs
// r.setups times before the timed phases (start: every instance but the
// last is torn down at once, the last is the one the workload runs on) and
// r.setups times after them (again), so the repeats see two of the host's
// states, half a minute apart, and setup_s is the midmean of them all.
type setups[T any] struct {
	r        *run
	setup    func() (T, error)
	teardown func(T)
	times    []float64 // at nominal host speed
	raw      []float64 // as measured
}

// once times one set-up; the caller took a yardstick slice just before.
func (s *setups[T]) once() (T, error) {
	start := time.Now()
	v, err := s.setup()
	took := time.Since(start).Seconds()
	if err == nil {
		s.raw = append(s.raw, took)
		s.times = append(s.times, took/s.r.ref.around())
	}
	return v, err
}

func (s *setups[T]) start() (T, error) {
	var last T
	s.r.ref.slice()
	for i := 0; i < s.r.setups; i++ {
		if i > 0 {
			s.teardown(last)
		}
		v, err := s.once()
		if err != nil {
			return v, err
		}
		last = v
	}
	// Garbage of the discarded instances must not count against the
	// measured one's memory.
	debug.FreeOSMemory()
	return last, nil
}

// again repeats the set-up after the measured instance is gone and returns
// setup_s.
func (s *setups[T]) again() (float64, error) {
	s.r.ref.slice()
	for i := 0; i < s.r.setups; i++ {
		v, err := s.once()
		if err != nil {
			return 0, err
		}
		s.teardown(v)
	}
	if s.r.ref != nil {
		s.r.info("raw.setup_s", midmean(s.raw), "s")
	}
	return midmean(s.times), nil
}

// rssMB reads a process's resident set from /proc; 0 when unavailable.
func rssMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler takes the resident set of the process holding the data (pid
// 0: this one) at phase and segment boundaries; rss_mb is the median of
// the samples. Neither the kernel's high-water mark nor the largest sample
// is used: the first would include the repeated set-ups in-process and, in
// the daemon, the garbage of the bulk load; both swing with the timing of
// one garbage collection (the daemon read 70 MB in nine runs and 132 MB in
// the tenth), which says nothing about what the program holds.
type rssSampler struct {
	pid int
	ref *hostRef // set when this process holds the yardstick's table, which is not the program's memory
	mb  []float64
}

func (p *rssSampler) sample() {
	pid, own := p.pid, 0.0
	if pid == 0 {
		pid = os.Getpid()
		if p.ref != nil {
			own = float64(len(refTable)) * 4 / (1 << 20)
		}
	}
	p.mb = append(p.mb, rssMB(pid)-own)
}

// updater applies one update (insert ins, delete del) to the system under
// test and reports how many points it deleted and the epoch that made it
// visible.
type updater func(ins, del geom.Points) (deleted int, epoch uint64, ids []int32, err error)

// churn is the write stream shared by the embedded workloads and the
// ledger: each update inserts a fresh batch of uniform points and deletes
// the batch inserted lag updates earlier, so the live set stays at its
// steady-state size. The first lag updates delete slices of the base set.
type churn struct {
	box   geom.Box
	rnd   *rng.Xoshiro256
	batch int
	queue []geom.Points // batches now live, oldest first; queue[0] is deleted next
	ids   [][]int32     // ids of the queued batches (nil for base slices until known)

	consumed  int // base rows that were queued for deletion at the start
	updates   int64
	wrong     int64  // updates that deleted a different number of points than asked
	lastEpoch uint64 // highest acknowledged epoch
}

// newChurn seeds the queue with lag slices of the base set; baseIDs are
// the ids the base rows were assigned.
func newChurn(base geom.Points, baseIDs []int32, batch, lag int, rnd *rng.Xoshiro256) *churn {
	c := &churn{box: geom.BoundingBoxAll(base), rnd: rnd, batch: batch}
	for i := 0; i < lag && (i+1)*batch <= base.Len(); i++ {
		c.queue = append(c.queue, base.Slice(i*batch, (i+1)*batch))
		c.ids = append(c.ids, baseIDs[i*batch:(i+1)*batch])
		c.consumed = (i + 1) * batch
	}
	return c
}

// step performs one update and returns its duration.
func (c *churn) step(apply updater) (time.Time, time.Time, error) {
	ins := freshPoints(c.rnd, c.box, c.batch)
	del := c.queue[0]
	start := time.Now()
	deleted, epoch, ids, err := apply(ins, del)
	end := time.Now()
	if err != nil {
		return start, end, err
	}
	c.updates++
	if deleted != del.Len() || len(ids) != ins.Len() {
		c.wrong++
	}
	c.lastEpoch = max(c.lastEpoch, epoch)
	c.queue = append(c.queue[1:], ins)
	c.ids = append(c.ids[1:], ids)
	return start, end, nil
}

// model returns what must be live now: the base rows never queued for
// deletion plus every queued batch.
func (c *churn) model(base geom.Points, baseIDs []int32) *oracle.LiveSet {
	m := &oracle.LiveSet{Dim: base.Dim}
	m.Insert(baseIDs[c.consumed:], base.Slice(c.consumed, base.Len()))
	for i, b := range c.queue {
		m.Insert(c.ids[i], b)
	}
	return m
}

// closedLoop runs callers goroutines, each calling op(caller, i) back to
// back until the deadline, and returns every call's completion sample.
// op returns the call's own start and end so the span and the latency
// share one pair of clock reads. The result's took is the time until the
// last caller's last call ended, a little past d.
func closedLoop(callers int, d time.Duration, rec *recorder, parent int32, name string,
	op func(caller, i int) (time.Time, time.Time, error)) (loopResult, error) {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		all    []sample
		failed int64
		first  error
	)
	begin := time.Now()
	deadline := begin.Add(d)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ln := rec.lane()
			var mine []sample
			var bad int64
			var err error
			for i := 0; ; i++ {
				start, end, e := op(g, i)
				if e != nil {
					bad++
					if err == nil {
						err = e
					}
				} else {
					mine = append(mine, sample{at: int64(end.Sub(begin)), dur: int64(end.Sub(start))})
					ln.add(name, parent, int32(i), start, end)
				}
				if !end.Before(deadline) {
					break
				}
			}
			mu.Lock()
			all = append(all, mine...)
			failed += bad
			if first == nil {
				first = err
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return loopResult{samples: all, failed: failed, took: time.Since(begin)}, first
}

// loopResult is what one closed-loop segment measured.
type loopResult struct {
	samples []sample
	failed  int64
	took    time.Duration
}

// timeline is a phase that ran in segments, with other work and a slice of
// the host yardstick between them. Each segment is a window: its rate and
// percentiles are scaled to nominal host speed by the slowdown around it,
// and the phase's value is the median over the segments. A stall (a slow
// fsync with every request of the connection queued behind it, a ladder
// rebuild, a frozen vCPU) spoils the window it falls in and moves one
// window's tail; the median across windows is what makes a percentile
// steady enough to gate on, and what it leaves out — the p99 over the whole
// phase, the share of operations slower than stallLimit — is printed beside
// it.
type timeline struct {
	samples []sample     // every segment's, as measured
	segs    [][5]float64 // per segment: per second, p50, p95, p99 (measured), slowdown
}

func (t *timeline) add(seg []sample, d time.Duration, slow float64) {
	t.samples = append(t.samples, seg...)
	if len(seg) == 0 {
		return
	}
	ps, _ := windowPctiles(seg, int64(d), 1, 50, 95, 99)
	t.segs = append(t.segs, [5]float64{float64(len(seg)) / d.Seconds(), ps[0], ps[1], ps[2], slow})
}

func (t *timeline) summary() latencySummary {
	s := wholePhase(t.samples)
	s.windows = len(t.segs)
	for i := range s.raw {
		var raw, scaled []float64
		for _, g := range t.segs {
			raw = append(raw, g[i])
			if i == 0 {
				scaled = append(scaled, g[i]*g[4]) // a rate
			} else {
				scaled = append(scaled, g[i]/g[4]) // a time
			}
		}
		s.raw[i] = median(raw)
		*[]*float64{&s.perSec, &s.p50, &s.p95, &s.p99}[i] = median(scaled)
	}
	return s
}
