package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"pargeo/client"
	"pargeo/internal/engine"
	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/server"
)

// overloadBench measures graceful degradation: what happens to goodput
// and to the tail latency of the requests that still SUCCEED when the
// offered load is pushed past what the serving path can absorb.
//
// The experiment has two phases:
//
//  1. A saturation probe: closed-loop callers, one per connection, hammer
//     the server and the sustained successful throughput is taken as the
//     saturation rate of the per-request serving path (a lone caller's
//     calls never merge). Sheds during the probe are expected (that is
//     the admission controller doing its job) — callers back off by the
//     server's retry hint and only successes count.
//
//  2. An open-loop sweep at {0.5, 1, 1.5, 2}× that rate through one
//     default client, so calls merge as deep as the load allows:
//     requests arrive on a Poisson schedule whether or not the server is
//     keeping up, each latency is measured from the request's SCHEDULED
//     arrival (no coordinated omission), and a shed — ErrOverloaded,
//     never a hang — is counted against goodput instead of aborting the
//     run. Load is mixed 3:1 KNN:insert, classed and budgeted separately
//     by the server's admission gates.
//
// After each phase one line prints the cumulative shed counters of both
// admission layers — the server's per-class gates and the engine's
// commit queue — so a run shows which layer binds.
//
// Every percentile printed is the MEDIAN across a multiplier's windows:
// a p999 from one window is decided by a handful of samples and one GC
// or scheduler hiccup can move it 3×. -overload-assert additionally
// gates the graceful-degradation contract in-process (goodput at 2×
// within 80% of the best observed goodput, successful-read p99
// bounded), which is what the nightly stress job runs.
func overloadBench(n int, seed uint64, measure time.Duration, assert bool) {
	fmt.Println("=== overload: admission control & backpressure at 0.5–2× saturation (2D uniform) ===")
	const (
		dim       = 2
		knnK      = 8
		insFrac   = 0.25 // fraction of arrivals that are inserts
		sweepReps = 3    // windows per multiplier; percentiles are medians
	)
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "overloadbench: %v\n", err)
		os.Exit(1)
	}

	// Finite budgets everywhere: per-class admission at the server,
	// bounded commit queue at the engine. These scale with the host so
	// the probe can actually reach saturation rather than the limits.
	procs := runtime.GOMAXPROCS(0)
	lim := server.Limits{
		Reads:   max(4, 2*procs),
		Writes:  max(2, procs),
		Control: 4,
	}
	eng := engine.New(dim, engine.Options{Shards: 4, MaxPending: 32})
	seedPts := generators.UniformCube(n, dim, seed)
	if res := eng.Insert(seedPts); res.Err != nil {
		fatal(res.Err)
	}
	domain := geom.BoundingBoxAll(seedPts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	srv := server.NewWithLimits(eng, dim, ln, lim)
	go srv.Serve() //nolint:errcheck // exits nil on Shutdown
	defer func() { srv.Shutdown(); eng.Close() }()
	addr := ln.Addr().String()

	span := func(rng *rand.Rand) []float64 {
		p := make([]float64, dim)
		for d := range p {
			p[d] = domain.Min[d] + rng.Float64()*(domain.Max[d]-domain.Min[d])
		}
		return p
	}

	// One default client carries the whole sweep (and the shed lines):
	// one merged batch in flight, so the more load arrives during a
	// round trip, the deeper the next batch merges.
	c, err := client.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	// --- phase 1: saturation probe ---------------------------------------
	peak := probeSaturation(addr, span, measure, insFrac, knnK, fatal)
	fmt.Printf("saturation: %.0f ops/s sustained by %d closed-loop single-caller connections "+
		"(limits reads=%d writes=%d, engine max-pending=32)\n", peak, probeCallers, lim.Reads, lim.Writes)
	printShed(c, "probe", fatal)
	fmt.Println()

	// --- phase 2: open-loop sweep -----------------------------------------
	rows := make([]sweepRow, 0, 4)
	for _, mult := range []float64{0.5, 1.0, 1.5, 2.0} {
		row := sweepRow{mult: mult, knnLat: make([][]float64, sweepReps), insLat: make([][]float64, sweepReps)}
		rng := rand.New(rand.NewSource(int64(seed) ^ int64(mult*1000)))
		for rep := 0; rep < sweepReps; rep++ {
			res := overloadWindow(c, span, peak*mult, measure, insFrac, knnK, rng, fatal)
			row.knnLat[rep], row.insLat[rep] = res.knnLat, res.insLat
			row.knnOK += res.knnOK
			row.insOK += res.insOK
			row.knnShed += res.knnShed
			row.insShed += res.insShed
		}
		secs := measure.Seconds() * sweepReps
		row.goodput = float64(row.knnOK+row.insOK) / secs
		row.shed = float64(row.knnShed+row.insShed) / secs
		rows = append(rows, row)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "load\toffered/s\tgoodput/s\tshed/s\tknn p50\tknn p99\tknn p999\tins p99")
	for _, row := range rows {
		fmt.Fprintf(w, "%.1fx\t%.0f\t%.0f\t%.0f\t%s\t%s\t%s\t%s\n",
			row.mult, peak*row.mult, row.goodput, row.shed,
			time.Duration(medianPctile(row.knnLat, 50)),
			time.Duration(medianPctile(row.knnLat, 99)),
			time.Duration(medianPctile(row.knnLat, 99.9)),
			time.Duration(medianPctile(row.insLat, 99)))
	}
	w.Flush()
	printShed(c, "sweep", fatal)

	if assert {
		assertGracefulDegradation(peak, rows, fatal)
	}
}

// printShed prints the run's cumulative shed counters per admission
// layer, read over the wire: the server's three class gates and the
// engine's commit queue.
func printShed(c *client.Client, after string, fatal func(error)) {
	st, err := c.Stats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("shed after %s: server reads=%d writes=%d control=%d, engine=%d\n",
		after, st["shed_reads"], st["shed_writes"], st["shed_control"], st["shed"])
}

// sweepRow is one open-loop multiplier's aggregate over its windows.
type sweepRow struct {
	mult             float64
	goodput, shed    float64 // ops/s over the windows
	knnLat, insLat   [][]float64
	knnOK, insOK     int64
	knnShed, insShed int64
}

// assertGracefulDegradation is the nightly stress gate: at 2× saturation
// the system must still deliver ≥ 80% of the best goodput it showed
// anywhere in the run, and the reads that DO succeed must stay fast —
// shed-don't-queue means overload shows up as typed refusals, not as an
// unbounded successful-request tail.
func assertGracefulDegradation(peak float64, rows []sweepRow, fatal func(error)) {
	best := peak
	for _, row := range rows {
		if row.goodput > best {
			best = row.goodput
		}
	}
	last := rows[len(rows)-1]
	if last.goodput < 0.8*best {
		fatal(fmt.Errorf("graceful degradation violated: goodput at 2x saturation is %.0f ops/s, "+
			"< 80%% of best observed %.0f ops/s", last.goodput, best))
	}
	if p99 := medianPctile(last.knnLat, 99); p99 > float64(time.Second) {
		fatal(fmt.Errorf("graceful degradation violated: successful-read p99 at 2x saturation is %s, "+
			"> 1s bound", time.Duration(p99)))
	}
	fmt.Printf("\noverload-assert: PASS (goodput at 2x = %.0f%% of best %.0f ops/s, knn p99 %s)\n",
		100*last.goodput/best, best, time.Duration(medianPctile(last.knnLat, 99)))
}

const probeCallers = 16

// probeSaturation runs closed-loop callers, each alone on its own
// connection so that every call is its own wire request, and returns the
// sustained SUCCESSFUL throughput — the saturation rate of the
// per-request serving path. Callers past the admission budgets are shed;
// they honor the server's retry hint and only successes count, so the
// probe measures capacity, not the shed rate.
func probeSaturation(addr string, span func(*rand.Rand) []float64, measure time.Duration,
	insFrac float64, knnK int, fatal func(error)) float64 {
	clients := make([]*client.Client, probeCallers)
	for i := range clients {
		uc, err := client.Dial(addr)
		if err != nil {
			fatal(err)
		}
		defer uc.Close()
		clients[i] = uc
	}
	var ok atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(measure)
	for g, cc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			for time.Now().Before(stop) {
				var err error
				if rng.Float64() < insFrac {
					res := cc.Insert(geom.Points{Data: span(rng), Dim: 2})
					err = res.Err
				} else {
					_, err = cc.KNN(span(rng), knnK)
				}
				var oe *client.OverloadedError
				switch {
				case err == nil:
					ok.Add(1)
				case errors.As(err, &oe):
					time.Sleep(max(oe.RetryAfter, time.Millisecond))
				default:
					fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	return float64(ok.Load()) / measure.Seconds()
}

// overloadResult is one open-loop window's outcome: per-class success
// latencies (ns, from scheduled arrival) and shed counts.
type overloadResult struct {
	knnLat, insLat   []float64
	knnOK, insOK     int64
	knnShed, insShed int64
}

// overloadWindow fires one open-loop window of mixed load at rate/s:
// requests run concurrently on their Poisson schedule, so a slow
// response delays nothing behind it, it only lengthens its own latency.
// A shed is an expected outcome here — it is counted, not fatal — and
// only successful requests contribute latencies. Any OTHER error (hang,
// corrupt frame, dropped connection) still aborts the run: overload must
// surface as typed StatusOverloaded and nothing else.
func overloadWindow(c *client.Client, span func(*rand.Rand) []float64, rate float64,
	measure time.Duration, insFrac float64, knnK int, rng *rand.Rand, fatal func(error)) overloadResult {
	var scheduled []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= measure {
			break
		}
		scheduled = append(scheduled, t)
	}
	nReq := len(scheduled)
	isInsert := make([]bool, nReq)
	rngs := make([]*rand.Rand, nReq)
	for i := range rngs {
		isInsert[i] = rng.Float64() < insFrac
		rngs[i] = rand.New(rand.NewSource(rng.Int63()))
	}
	lat := make([]float64, nReq)
	shed := make([]bool, nReq)
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i, off := range scheduled {
		at := start.Add(off)
		time.Sleep(time.Until(at))
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			var err error
			if isInsert[i] {
				res := c.Insert(geom.Points{Data: span(rngs[i]), Dim: 2})
				err = res.Err
			} else {
				_, err = c.KNN(span(rngs[i]), knnK)
			}
			switch {
			case err == nil:
				lat[i] = float64(time.Since(at).Nanoseconds())
			case errors.Is(err, client.ErrOverloaded):
				shed[i] = true
			default:
				fatal(err)
			}
		}(i, at)
	}
	wg.Wait()
	var res overloadResult
	for i := 0; i < nReq; i++ {
		switch {
		case shed[i] && isInsert[i]:
			res.insShed++
		case shed[i]:
			res.knnShed++
		case isInsert[i]:
			res.insOK++
			res.insLat = append(res.insLat, lat[i])
		default:
			res.knnOK++
			res.knnLat = append(res.knnLat, lat[i])
		}
	}
	return res
}

// medianPctile computes the p-th percentile inside each window and
// returns the median across windows.
func medianPctile(reps [][]float64, p float64) float64 {
	vals := make([]float64, 0, len(reps))
	for _, lat := range reps {
		vals = append(vals, pctile(lat, p))
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// pctile returns the p-th percentile (nearest-rank interpolation) of lat
// in place-sorted order.
func pctile(lat []float64, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Float64s(lat)
	idx := p / 100 * float64(len(lat)-1)
	lo := int(idx)
	if lo >= len(lat)-1 {
		return lat[len(lat)-1]
	}
	frac := idx - float64(lo)
	return lat[lo]*(1-frac) + lat[lo+1]*frac
}
