package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"pargeo/internal/engine"
	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/rng"
)

// mvccBench measures what MVCC retention and pinned-snapshot analytics
// cost the write path — the interference budget behind the engine's
// claim that long analytics jobs and live writers coexist.
//
// The experiment has two parts:
//
//  1. Interference: two writer goroutines churn stationary per-quadrant
//     batches against an engine with a RetainEpochs=64 window, first
//     alone (the no-analytics baseline) and then concurrently with a
//     duty-cycled analytics job that repeatedly pins the latest version,
//     runs an AllKNN pass over a sample of the pinned points, and
//     releases. The job holds its duty cycle at ~16% of wall time by
//     sleeping between passes in proportion to each pass's measured
//     length, so the comparison is honest on any core count — on a
//     single-core host an unthrottled analytics loop would simply
//     time-slice half the CPU and measure the scheduler, not the
//     engine's isolation. The headline ratio is concurrent writer
//     throughput over baseline; snapshot isolation plus the bounded duty
//     cycle should keep it >= 70%.
//
//  2. Retention overhead: a single writer commits the same churn stream
//     into engines with RetainEpochs 0, 64, and 256 and the marginal
//     retained memory (Stats().RetainedBytes: bytes reachable from
//     retained/pinned versions but NOT from the live one) is reported
//     per window size. Because versions share structure, the cost per
//     retained epoch is the delta the epoch's commit rebuilt — far below
//     a full copy — and this table is where that claim is checked.
//
// Interference rows follow the drift experiment's fixed-window protocol
// (median of 5 one-second windows). -mvcc-assert additionally gates the
// >= 70% interference contract in-process, which is what the nightly
// stress job runs.
func mvccBench(n int, seed uint64, assert bool) {
	fmt.Println("=== mvcc: pinned-snapshot analytics vs writer interference (2D uniform) ===")
	const (
		dim     = 2
		writers = 2
		batchB  = 256
		retain  = 64
		knnK    = 8
		sampleQ = 8192
		duty    = 0.16 // analytics duty cycle: fraction of wall time inside passes
	)
	seedPts := generators.UniformCube(n, dim, seed)
	domain := geom.BoundingBoxAll(seedPts)

	type armResult struct {
		ups      float64 // median writer throughput (updates/s)
		passes   int64   // completed analytics passes
		queries  float64 // AllKNN queries answered per second of pass time
		retained uint64  // Stats().RetainedBytes at the end of the run
		lag      uint64  // final live epoch minus last pinned epoch
	}
	runArm := func(analytics bool) armResult {
		e := engine.New(dim, engine.Options{Shards: 4, RetainEpochs: retain})
		defer e.Close()
		if res := e.Insert(seedPts); res.Err != nil {
			fmt.Fprintf(os.Stderr, "mvccbench: %v\n", res.Err)
			os.Exit(1)
		}
		var stop atomic.Bool
		var u atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rng.NewXoshiro256(seed + uint64(i)*1e6 + 41)
				region := writerRegion(i, domain)
				var prev geom.Points
				for !stop.Load() {
					batch := geom.NewPoints(batchB, dim)
					for j := 0; j < batchB; j++ {
						p := batch.At(j)
						for c := range p {
							p[c] = region.Min[c] + r.Float64()*(region.Max[c]-region.Min[c])
						}
					}
					e.Update(batch, prev)
					prev = batch
					u.Add(1)
				}
			}()
		}
		var res armResult
		if analytics {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rng.NewXoshiro256(seed + 97)
				var passSecs float64
				var queries int64
				for !stop.Load() {
					s := e.Pin()
					pts, _ := s.Points()
					m := sampleQ
					if pts.Len() < m {
						m = pts.Len()
					}
					sample := geom.NewPoints(m, dim)
					for j := 0; j < m; j++ {
						sample.Set(j, pts.At(r.Intn(pts.Len())))
					}
					start := time.Now()
					s.AllKNN(sample, knnK, nil)
					pass := time.Since(start)
					res.lag = e.Epoch() - s.Epoch()
					s.Release()
					passSecs += pass.Seconds()
					queries += int64(m)
					res.passes++
					res.queries = float64(queries) / passSecs
					// Hold the duty cycle: sleep long enough that passes
					// occupy ~duty of wall time regardless of how fast one
					// pass runs on this host.
					time.Sleep(time.Duration(float64(pass) * (1 - duty) / duty))
				}
			}()
		}
		var ud []float64
		for w := 0; w < mvccWindows; w++ {
			u0 := u.Load()
			time.Sleep(mvccWindow)
			ud = append(ud, float64(u.Load()-u0)/mvccWindow.Seconds())
		}
		res.retained = e.Stats().RetainedBytes
		stop.Store(true)
		wg.Wait()
		sort.Float64s(ud)
		res.ups = ud[mvccWindows/2]
		return res
	}

	base := runArm(false)
	conc := runArm(true)
	ratio := conc.ups / base.ups

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "arm\twriters\tupdates/s\tanalytics passes\tallknn queries/s\tpin lag (epochs)\tretained MB")
	fmt.Fprintf(w, "no-analytics\t%d\t%.3g\t-\t-\t-\t%.1f\n",
		writers, base.ups, float64(base.retained)/1e6)
	fmt.Fprintf(w, "pinned-allknn\t%d\t%.3g\t%d\t%.3g\t%d\t%.1f\n",
		writers, conc.ups, conc.passes, conc.queries, conc.lag, float64(conc.retained)/1e6)
	w.Flush()
	fmt.Printf("\ninterference: concurrent writer throughput is %.0f%% of the no-analytics "+
		"baseline (analytics duty cycle %.0f%%, RetainEpochs=%d)\n", 100*ratio, 100*duty, retain)

	retentionSweep(n, seed, seedPts, domain, batchB)

	if assert && ratio < 0.70 {
		fmt.Fprintf(os.Stderr, "mvccbench: interference contract violated: concurrent writer "+
			"throughput %.0f%% of baseline, want >= 70%%\n", 100*ratio)
		os.Exit(1)
	}
	if assert {
		fmt.Printf("mvcc-assert: PASS (concurrent writers at %.0f%% of baseline)\n", 100*ratio)
	}
}

// Interference measurement protocol: fixed windows with the median taken,
// exactly like the drift experiment (see engine.go) and for the same
// reason — the committed baseline and CI's fresh runs must measure the
// same thing, and the median discards the odd window distorted by a GC
// pause or a repartition.
const (
	mvccWindows = 5
	mvccWindow  = time.Second
)

// retentionSweep reports the marginal memory cost of the retention window
// itself: identical churn streams committed into engines that retain 0,
// 64, and 256 epochs, with Stats().RetainedBytes (bytes reachable only
// from retained versions, live structure excluded) at the end. Retained
// epochs share all structure their commits did not rebuild, so bytes per
// epoch is the interesting column — it should sit near the commit's
// rebuilt-tree sizes, orders of magnitude under size-of-dataset.
func retentionSweep(n int, seed uint64, seedPts geom.Points, domain geom.Box, batchB int) {
	const dim = 2
	const commits = 512
	fmt.Println("\n--- retention overhead: identical churn, swept RetainEpochs ---")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "retain\tepochs held\tretained MB\tKB/epoch")
	for _, retain := range []int{0, 64, 256} {
		e := engine.New(dim, engine.Options{Shards: 4, RetainEpochs: retain})
		if res := e.Insert(seedPts); res.Err != nil {
			fmt.Fprintf(os.Stderr, "mvccbench: %v\n", res.Err)
			os.Exit(1)
		}
		r := rng.NewXoshiro256(seed + 71)
		region := writerRegion(0, domain)
		var prev geom.Points
		for round := 0; round < commits; round++ {
			batch := geom.NewPoints(batchB, dim)
			for j := 0; j < batchB; j++ {
				p := batch.At(j)
				for c := range p {
					p[c] = region.Min[c] + r.Float64()*(region.Max[c]-region.Min[c])
				}
			}
			if res := e.Update(batch, prev); res.Err != nil {
				fmt.Fprintf(os.Stderr, "mvccbench: %v\n", res.Err)
				os.Exit(1)
			}
			prev = batch
		}
		st := e.Stats()
		perEpoch := "-"
		if st.RetainedEpochs > 1 {
			perEpoch = fmt.Sprintf("%.0f", float64(st.RetainedBytes)/float64(st.RetainedEpochs-1)/1e3)
		}
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%s\n", retain, st.RetainedEpochs, float64(st.RetainedBytes)/1e6, perEpoch)
		e.Close()
	}
	w.Flush()
	fmt.Println("\nRetained bytes are marginal: structure shared with the live version is")
	fmt.Println("charged to the live trees, so each held epoch costs only what its commit")
	fmt.Println("rebuilt.")
}
