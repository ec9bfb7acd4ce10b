package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"pargeo/client"
	"pargeo/internal/geom"
)

// served is one loaded daemon with the client connected to it.
type served struct {
	d   *daemon
	c   *client.Client
	dir string
	ids []int32 // ids the daemon assigned to the rows of D2
}

func (s *served) close() {
	if s == nil {
		return
	}
	if s.c != nil {
		s.c.Close()
	}
	s.d.stop() //nolint:errcheck // teardown; the measured instance's stop is checked where it happens
	os.RemoveAll(s.dir)
}

// phaseA runs the open loop at mult × the phase-A rates for span; updates
// insert fresh wirePoints-point batches. Returns the result and the points
// inserted.
func phaseA(r *run, s *served, q2 geom.Points, box geom.Box, mult float64, span time.Duration, parent int32) (openResult, int64) {
	schedule := poissonSchedule(r.seed, span, []float64{mult * r.sz.knnRate, mult * r.sz.updRate})
	nUpd := 0
	for _, a := range schedule {
		nUpd += a.class
	}
	// Update payloads are made before the clock starts: the generator has
	// one processor and must spend it sending, not generating.
	rnd := stream(r.seed, fmt.Sprint("phaseA", mult))
	batches := make([]geom.Points, nUpd)
	for i := range batches {
		batches[i] = freshPoints(rnd, box, wirePoints)
	}
	res := openLoop(schedule, span, 2, r.rec, parent, []string{"client.KNN", "client.Insert"}, func(class, i int) error {
		if class == 0 {
			_, err := s.c.KNN(q2.At(i%q2.Len()), knnK)
			return err
		}
		return s.c.Insert(batches[i]).Err
	})
	return res, int64(len(res.lat[1])) * wirePoints
}

// runServeMixed: the pargeo-serve daemon as its user sees it. D2 is
// loaded over the wire (set-up); phase A is an open loop of independent
// Poisson k-NN and insert arrivals with every latency timed from its
// scheduled send (printed, not gated); phase B is a closed loop of 15 k-NN
// callers and one insert caller through the one batching client, with
// multi-query batch jobs between its segments (the gated metrics); then a
// restart on the same directory. wire + server + client own almost
// all of a k-NN here (µs of tree under hundreds of µs of round trip) and
// nothing in embed-*. The daemon gets max(1, nproc-1) processors and this
// generator exactly one, so the two never share a scheduler. (Pinning the
// two to their processors as well was tried and dropped: eight runs pinned
// were no steadier than eight unpinned, and a pinned generator cannot move
// off a processor the host has taken away.)
func runServeMixed(r *run) error {
	nproc := r.fp.NProc
	daemonProcs := max(1, nproc-1)
	if err := checkSizing(nproc, 1, daemonProcs, 1); err != nil {
		return err
	}
	runtime.GOMAXPROCS(1)
	r.fp.GOMAXPROCS, r.fp.DaemonProc = 1, daemonProcs
	if nproc == 1 {
		r.logf("note    1 processor: the generator shares it with the daemon; latencies include that")
	}
	binDir, err := r.tempDir("bin")
	if err != nil {
		return err
	}
	bin, err := buildDaemon(binDir)
	if err != nil {
		return err
	}
	r.setups = min(r.setups, 2) // a set-up starts a daemon and loads D2 over the wire: 0.6 s
	d2 := datasetD2(r.sz.d2)
	q2 := queriesQ2(d2, r.sz.q2, r.seed)
	box := geom.BoundingBoxAll(d2)

	// Set-up: start the daemon and load D2 through the client in batches.
	phase := r.rec.begin("setup", 0)
	su := &setups[*served]{r: r, teardown: (*served).close, setup: func() (*served, error) {
		dir, err := r.tempDir("serve")
		if err != nil {
			return nil, err
		}
		s := &served{dir: dir}
		r.atExit(s.close)
		if s.d, err = startDaemon(bin, dir, daemonProcs); err != nil {
			return s, err
		}
		if s.c, err = client.Dial(s.d.addr); err != nil {
			return s, err
		}
		for lo := 0; lo < d2.Len(); lo += r.sz.loadBatch {
			res := s.c.Insert(d2.Slice(lo, min(lo+r.sz.loadBatch, d2.Len())))
			if res.Err != nil {
				return s, fmt.Errorf("load: %w", res.Err)
			}
			s.ids = append(s.ids, res.IDs...)
		}
		return s, nil
	}}
	sv, err := su.start()
	if err != nil {
		return err
	}
	r.rec.end(phase)
	statsBefore, err := sv.c.Stats()
	if err != nil {
		return err
	}
	var calls, wrong, failed int64 // harness calls into the client; wrong answers; failed calls
	rss := rssSampler{pid: sv.d.cmd.Process.Pid}

	// Reads issued before the first write are checkable against D2.
	phase = r.rec.begin("verify", 0)
	nCheck := min(r.sz.maxChecks/2, q2.Len())
	checks := make([]knnCheck, 0, nCheck)
	for i := 0; i < nCheck; i++ {
		q := q2.At(q2.Len() - 1 - i)
		ids, err := sv.c.KNN(q, knnK)
		if err != nil {
			return fmt.Errorf("verify k-NN: %w", err)
		}
		checks = append(checks, knnCheck{q: q, ids: ids})
	}
	_, bad := verifyKNN(d2, rowIndex(sv.ids), knnK, checks, nCheck)
	calls += int64(nCheck)
	wrong += int64(bad)
	r.rec.end(phase)

	// Phase A, the open loop. Its latencies are printed, not gated: at a
	// rate the generator keeps, daemon and generator fall idle between
	// requests, their processors halt, and what a request then waits for is
	// the hypervisor waking them (p50 spread 0.2–0.5 between identical runs,
	// p99 0.4–0.7; see README.md, Bounds). Traced, it becomes a rate sweep
	// (1×, 2×, 4×) of shorter steps; above 1× overload is the point.
	aSpan := time.Duration(0.2 * r.seconds * float64(time.Second))
	mults := []float64{1}
	if r.trace {
		mults = []float64{1, 2, 4}
		aSpan /= 3
	}
	var inserted int64
	maxRate := 0.0
	for _, m := range mults {
		phase = r.rec.begin(fmt.Sprintf("phaseA x%g", m), 0)
		res, ins := phaseA(r, sv, q2, box, m, aSpan, phase)
		r.rec.end(phase)
		inserted += ins
		calls += int64(len(res.lat[0]) + len(res.lat[1]))
		k, u := summarize(res.lat[0], int64(aSpan)), summarize(res.lat[1], int64(aSpan))
		rss.sample()
		why := res.invalid()
		r.logf("open    x%g knn %.0f/s n=%d p50 %.1f p99 %.1f whole-phase p99 %.1f us, %.2f %% over 5 ms | insert %.0f/s n=%d p50 %.1f p99 %.1f whole-phase p99 %.1f us | refused %d failed %d | lateness p50 %.0f p99 %.0f us | backlog %v %s",
			m, m*r.sz.knnRate, k.n, k.p50/1e3, k.p99/1e3, k.wholeP99/1e3, 100*k.stalled, m*r.sz.updRate, u.n, u.p50/1e3, u.p99/1e3, u.wholeP99/1e3,
			res.refused, res.failed, pctile(res.lateness, 50)/1e3, pctile(res.lateness, 99)/1e3, res.backlog, why)
		if late := res.late(); late != "" {
			r.logf("WARNING x%g %s", m, late)
		}
		if m == 1 {
			r.info("open.knn_p50_us", k.p50/1e3, "us")
			r.info("open.knn_p99_us", k.p99/1e3, "us")
			r.info("open.update_p50_us", u.p50/1e3, "us")
			r.info("open.update_p99_us", u.p99/1e3, "us")
			r.tails("open.knn", k)
			r.tails("open.update", u)
			// A request that failed is a failed operation. One that was
			// refused at the in-flight cap was never sent: the open loop
			// is informational, and an overrun cap invalidates it alone.
			calls += res.failed
			failed += res.failed
			if res.refused > 0 && why == "" {
				why = fmt.Sprintf("INVALID: %d arrivals refused at the in-flight cap", res.refused)
			}
			if why != "" {
				r.logf("WARNING x1 open loop %s", why)
			}
		}
		if why == "" && res.refused == 0 && k.p99 <= 5e6 {
			maxRate = m * r.sz.knnRate
		}
	}
	if r.trace {
		r.info("sweep.max_knn_rate_p99_le_5ms", maxRate, "1/s")
	}

	// Phase B, the closed loop, is what the gated metrics come from: 15
	// callers issue k-NN and one issues inserts back to back through the
	// one batching client, in segments, with one batch job — a multi-query
	// request answered by one parallel pass — after every third (see
	// segments in embedded.go). Both processes stay busy, so a latency is
	// the system's and not the wake-up's, and by Little's law the k-NN
	// latency and throughput tell one story.
	const readers = 15
	bSeg := time.Duration(0.62 * r.seconds / segments * float64(time.Second))
	var asked [readers]int
	rnd := stream(r.seed, "phaseB")
	batchQ := q2.Slice(0, min(r.sz.ledgerQ, q2.Len()))
	var (
		reads, writes timeline
		jobs          batchJobs
		bFailed       int64
	)
	ln := r.rec.lane()
	phase = r.rec.begin("phaseB+batch", 0)
	r.ref.slice()
	for seg := 0; seg < segments; seg++ {
		var wg sync.WaitGroup
		var got loopResult
		var readErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, readErr = closedLoop(readers, bSeg, r.rec, phase, "client.KNN", func(g, _ int) (time.Time, time.Time, error) {
				q := q2.At((g*q2.Len()/readers + asked[g]) % q2.Len())
				asked[g]++
				start := time.Now()
				_, err := sv.c.KNN(q, knnK)
				return start, time.Now(), err
			})
		}()
		wrote, err := closedLoop(1, bSeg, r.rec, phase, "client.Insert", func(_, _ int) (time.Time, time.Time, error) {
			ins := freshPoints(rnd, box, wirePoints)
			start := time.Now()
			err := sv.c.Insert(ins).Err
			return start, time.Now(), err
		})
		wg.Wait()
		if err == nil {
			err = readErr
		}
		if err != nil {
			r.logf("WRONG   phase B: %d calls failed, first: %v", wrote.failed+got.failed, err)
		}
		slow := r.ref.around()
		reads.add(got.samples, got.took, slow)
		writes.add(wrote.samples, wrote.took, slow)
		bFailed += wrote.failed + got.failed
		if seg%batchEvery == batchEvery-1 {
			start := time.Now()
			if _, err := sv.c.KNNBatch(batchQ, knnK); err != nil {
				return fmt.Errorf("KNNBatch: %w", err)
			}
			end := time.Now()
			ln.add("client.KNNBatch", phase, -1, start, end)
			jobs.add(r, end.Sub(start))
			calls++
			rss.sample()
		}
	}
	r.rec.end(phase)
	bKNN, bIns := int64(len(reads.samples)), int64(len(writes.samples))
	inserted += bIns * wirePoints
	calls += bKNN + bIns + bFailed
	failed += bFailed

	// Counters, then a restart on the same directory: the daemon must come
	// back with every acknowledged insert.
	statsAfter, err := sv.c.Stats()
	if err != nil {
		return err
	}
	lastEpoch := statsAfter["epoch"]
	wantSize := uint64(d2.Len()) + uint64(inserted)
	if statsAfter["size"] != wantSize {
		wrong++
		r.logf("WRONG   daemon holds %d points, %d were acknowledged", statsAfter["size"], wantSize)
	}
	sv.c.Close()
	sv.c = nil
	if err := sv.d.stop(); err != nil {
		return err
	}
	// Recovered means answering: the clock stops at the first reply.
	phase = r.rec.begin("recover", 0)
	start := time.Now()
	if sv.d, err = startDaemon(bin, sv.dir, daemonProcs); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if sv.c, err = client.Dial(sv.d.addr); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	st, err := sv.c.Stats()
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	recoverS := time.Since(start).Seconds()
	r.rec.end(phase)
	if st["size"] != wantSize || st["epoch"] < lastEpoch {
		wrong++
		r.logf("WRONG   restart recovered size %d epoch %d, want size %d epoch ≥ %d", st["size"], st["epoch"], wantSize, lastEpoch)
	}
	sv.c.Close()
	sv.c = nil
	if err := sv.d.stop(); err != nil {
		return err
	}
	sv.close()
	r.ops(calls+2, failed+wrong)
	phase = r.rec.begin("setup again", 0)
	setupS, err := su.again()
	if err != nil {
		return err
	}
	r.rec.end(phase)

	rs, us := reads.summary(), writes.summary()
	r.emit("setup_s", setupS)
	r.emit("rss_mb", median(rss.mb))
	r.emit("knn_per_s", rs.perSec)
	r.emit("knn_p50_us", rs.p50/1e3)
	r.emit("knn_p95_us", rs.p95/1e3)
	r.emit("update_pts_per_s", us.perSec*wirePoints)
	r.emit("update_p50_us", us.p50/1e3)
	r.emit("update_p95_us", us.p95/1e3)
	jobs.emit(r)
	r.info("recover_s", recoverS, "s")
	r.tails("knn", rs)
	r.tails("update", us)
	if r.trace {
		delta := func(k string) float64 { return float64(statsAfter[k] - statsBefore[k]) }
		ratio := func(n, d float64) float64 {
			if d == 0 {
				return 0
			}
			return n / d
		}
		// The Stats call itself is one request, hence the −1.
		requests := delta("requests") - 1
		r.emit("engine.read_group_size", ratio(delta("queries"), delta("query_groups")))
		r.emit("engine.write_group_size", ratio(delta("updates"), delta("commits")))
		r.emit("engine.shed", delta("shed"))
		r.emit("server.requests", requests)
		r.emit("server.shed", delta("shed_reads")+delta("shed_writes")+delta("shed_control"))
		r.emit("client.merge_ratio", ratio(float64(calls), requests))
	}
	return nil
}
