package main

import (
	"math"
	"runtime"
	"strconv"
	"time"

	"pargeo/internal/bdltree"
	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/hull2d"
	"pargeo/internal/hull3d"
	"pargeo/internal/kdtree"
	"pargeo/internal/oracle"
	"pargeo/internal/parlay"
	"pargeo/internal/seb"
)

// batchInputs are the paper's data sets at this host's sizes.
type batchInputs struct {
	is2, is3, u5, u2, b5 geom.Points
	bdlQ                 geom.Points // k-NN queries of the bdltree stage
	pointQ               geom.Points // single-query stream over u2
}

func genBatchInputs(sz sizes, seed uint64) *batchInputs {
	in := &batchInputs{
		is2: generators.InSphere(sz.hull2d, 2, seed),
		is3: generators.InSphere(sz.hull3d, 3, seed+1),
		u5:  generators.UniformCube(sz.seb, 5, seed+2),
		u2:  generators.UniformCube(sz.kd, 2, seed+3),
		b5:  generators.UniformCube(sz.bdl, 5, seed+4),
	}
	in.bdlQ = in.b5.Slice(0, min(sz.bdlQueries, sz.bdl))
	in.pointQ = queriesQ2(in.u2, sz.q2, seed)
	return in
}

// lap times consecutive stages of one repeat: mark(name) charges the time
// since the previous mark (or skip) to name.
type lap struct {
	last  time.Time
	took  map[string]float64
	calls map[string][]float64 // per-call durations of stages that want them (ns)
}

func (l *lap) skip() { l.last = time.Now() }
func (l *lap) mark(name string) {
	now := time.Now()
	l.took[name] += now.Sub(l.last).Seconds()
	l.last = now
}

// batchGroup is stages that run back to back in one repeat because each
// needs the previous one's output (AllKNN needs the built tree, deleting
// needs the inserted points). check verifies the last repeat's outputs
// and returns (answers checked, answers wrong).
type batchGroup struct {
	stages []string
	once   func(l *lap)
	check  func() (int, int)
}

// paperGroups is the stage table: the paper's Table 1 rows this repo
// implements and that the serving stack is built from.
func paperGroups(in *batchInputs, seed uint64) []batchGroup {
	var (
		hull  []int32
		fac   [][3]int32
		ball  seb.Ball
		tree  *kdtree.Tree
		nbrs  []int32
		bdl   *bdltree.Tree
		bdlNN [][]int32
		bdlID []int32
		sizes [2]int // bdltree size after inserting, after deleting
	)
	tenth := max(1, in.b5.Len()/10)
	return []batchGroup{
		{
			stages: []string{"hull2d"},
			once:   func(l *lap) { hull = hull2d.DivideConquer(in.is2); l.mark("hull2d") },
			check: func() (int, int) {
				eps := 1e-9 * math.Sqrt(float64(in.is2.Len()))
				miss := hullMisses(in.is2, 64, func(q []float64) bool { return oracle.InHull2D(in.is2, hull, q, eps) })
				if len(hull) != len(hull2d.SequentialQuickhull(in.is2)) {
					miss++
				}
				return in.is2.Len()/64 + 1, miss
			},
		},
		{
			stages: []string{"hull3d"},
			once:   func(l *lap) { fac = hull3d.Pseudo(in.is3); l.mark("hull3d") },
			check: func() (int, int) {
				eps := 1e-9 * math.Sqrt(float64(in.is3.Len()))
				stride := max(1, in.is3.Len()/500)
				miss := hullMisses(in.is3, stride, func(q []float64) bool { return oracle.InHull3D(in.is3, fac, q, eps) })
				return in.is3.Len()/stride + 1, miss
			},
		},
		{
			stages: []string{"seb"},
			once:   func(l *lap) { ball = seb.Sampling(in.u5, seed); l.mark("seb") },
			check: func() (int, int) {
				// Every point inside, and the same ball the orthant-scan
				// algorithm finds (the smallest enclosing ball is unique).
				// Plain sequential Welzl would be the textbook reference
				// but takes ~30 s at this size.
				miss := 0
				slack := ball.SqRadius * 1e-9
				for i := 0; i < in.u5.Len(); i++ {
					if ball.SqDistTo(in.u5.At(i)) > ball.SqRadius+slack {
						miss++
					}
				}
				ref := seb.OrthantScan(in.u5)
				if math.Abs(ball.SqRadius-ref.SqRadius) > 1e-6*ref.SqRadius {
					miss++
				}
				return in.u5.Len() + 1, miss
			},
		},
		{
			stages: []string{"kdtree.build", "kdtree.allknn"},
			once: func(l *lap) {
				tree = kdtree.Build(in.u2, kdtree.Options{})
				l.mark("kdtree.build")
				nbrs = tree.AllKNN(batchK, nil)
				l.mark("kdtree.allknn")
			},
			check: func() (int, int) {
				stride := max(1, in.u2.Len()/100)
				checked, wrong := 0, 0
				for i := 0; i < in.u2.Len(); i += stride {
					checked++
					if !knnAnswerOK(in.u2, in.u2.At(i), batchK, i, nbrs[i*batchK:(i+1)*batchK]) {
						wrong++
					}
				}
				return checked, wrong
			},
		},
		{
			stages: []string{"bdltree.insert", "bdltree.knn", "bdltree.delete"},
			once: func(l *lap) {
				bdl = bdltree.New(5, bdltree.Options{})
				bdlID = bdlID[:0]
				l.skip()
				for lo := 0; lo < in.b5.Len(); lo += tenth {
					t := time.Now()
					bdlID = append(bdlID, bdl.Insert(in.b5.Slice(lo, min(lo+tenth, in.b5.Len())))...)
					l.calls["bdltree.insert"] = append(l.calls["bdltree.insert"], float64(time.Since(t)))
				}
				l.mark("bdltree.insert")
				sizes[0] = bdl.Size()
				bdlNN = bdl.KNN(in.bdlQ, batchK, nil)
				l.mark("bdltree.knn")
				for lo := 0; lo < in.b5.Len(); lo += tenth {
					t := time.Now()
					bdl.Delete(in.b5.Slice(lo, min(lo+tenth, in.b5.Len())))
					l.calls["bdltree.delete"] = append(l.calls["bdltree.delete"], float64(time.Since(t)))
				}
				l.mark("bdltree.delete")
				sizes[1] = bdl.Size()
			},
			check: func() (int, int) {
				checked, wrong := 2, 0
				if sizes[0] != in.b5.Len() {
					wrong++
				}
				if sizes[1] != 0 {
					wrong++
				}
				rowOf := rowIndex(bdlID)
				stride := max(1, in.bdlQ.Len()/50)
				rows := make([]int32, 0, batchK)
				for i := 0; i < in.bdlQ.Len(); i += stride {
					rows = rows[:0]
					for _, id := range bdlNN[i] {
						rows = append(rows, rowOf[id])
					}
					checked++
					if !knnAnswerOK(in.b5, in.bdlQ.At(i), batchK, -1, rows) {
						wrong++
					}
				}
				return checked, wrong
			},
		},
	}
}

// runPaperBatch is the library user's workload: time to solution of the
// paper's batch algorithms at P=1 and P=nproc. Only parlay, kernel,
// kdtree, bdltree, hull2d, hull3d and seb work; the serving stack is idle.
func runPaperBatch(r *run) error {
	nproc := r.fp.NProc
	if err := checkSizing(nproc, nproc, 0, 0); err != nil {
		return err
	}
	runtime.GOMAXPROCS(nproc)
	r.fp.GOMAXPROCS = nproc
	rss := rssSampler{ref: r.ref}

	phase := r.rec.begin("setup", 0)
	su := &setups[*batchInputs]{r: r, teardown: func(*batchInputs) {},
		setup: func() (*batchInputs, error) { return genBatchInputs(r.sz, r.seed), nil }}
	in, err := su.start()
	if err != nil {
		return err
	}
	r.rec.end(phase)
	groups := paperGroups(in, r.seed)

	nStages := 0
	for _, g := range groups {
		nStages += len(g.stages)
	}
	// The time is spent in rounds: each round runs every group once at P=1
	// and once at P=nproc, then single queries (one caller: the latency a
	// library user's point query sees, with no engine around the tree) for
	// a ninth of the time the groups took. A stage's repeats are thereby
	// spread over the whole run instead of sitting in one contiguous
	// second of it: the host's speed drifts on the scale of seconds, and a
	// stage timed inside one slow second would carry that second into its
	// median.
	budget := r.seconds
	qtree := kdtree.Build(in.u2, kdtree.Options{})
	buf := kdtree.NewKNNBuffer(knnK)
	var pq timeline // the single queries of all rounds
	asked := 0
	const minRounds = 3
	ps := []int{1, nproc}
	if nproc == 1 {
		ps = ps[:1] // P=1 is P=nproc; timing it twice would only halve the rounds
	}
	// stage → P → per-repeat seconds, at nominal host speed and as measured
	times, rawTimes := map[string]map[int][]float64{}, map[string]map[int][]float64{}
	for _, g := range groups {
		for _, s := range g.stages {
			times[s], rawTimes[s] = map[int][]float64{}, map[int][]float64{}
		}
	}
	var batchCalls, rawCalls []float64 // per-batch bdltree latencies at P=nproc (ns): at nominal host speed, as measured
	ln := r.rec.lane()
	begin := time.Now()
	r.ref.slice()
	for round := 0; round < minRounds || time.Since(begin).Seconds() < budget; round++ {
		phase := r.rec.begin("round "+strconv.Itoa(round), 0)
		roundStart := time.Now()
		for _, g := range groups {
			laps := map[int]*lap{}
			for _, p := range ps {
				old := runtime.GOMAXPROCS(p)
				l := &lap{took: map[string]float64{}, calls: map[string][]float64{}}
				start := time.Now()
				l.last = start
				g.once(l)
				ln.add(g.stages[0]+"@P"+strconv.Itoa(p), phase, int32(round), start, time.Now())
				runtime.GOMAXPROCS(old)
				laps[p] = l
				r.ops(int64(len(g.stages)), 0)
			}
			// One yardstick slice after each group scales both of its runs.
			slow := r.ref.around()
			for _, p := range ps {
				for _, s := range g.stages {
					rawTimes[s][p] = append(rawTimes[s][p], laps[p].took[s])
					times[s][p] = append(times[s][p], laps[p].took[s]/slow)
				}
			}
			for _, calls := range laps[nproc].calls {
				for _, c := range calls {
					rawCalls = append(rawCalls, c)
					batchCalls = append(batchCalls, c/slow)
				}
			}
		}
		slice := time.Since(roundStart) / 9
		got, _ := closedLoop(1, slice, r.rec, phase, "kdtree.KNNInto", func(_, _ int) (time.Time, time.Time, error) {
			q := in.pointQ.At(asked % in.pointQ.Len())
			asked++
			start := time.Now()
			buf.Reset()
			qtree.KNNInto(q, -1, buf)
			return start, time.Now(), nil
		})
		pq.add(got.samples, got.took, r.ref.around())
		r.rec.end(phase)
		rss.sample()
	}
	r.ops(int64(len(pq.samples)), 0)

	phase = r.rec.begin("verify", 0)
	for _, g := range groups {
		checked, wrong := g.check()
		r.ops(int64(checked), int64(wrong))
		if wrong > 0 {
			r.logf("WRONG   %s: %d of %d checks failed", g.stages[0], wrong, checked)
		}
	}
	r.rec.end(phase)

	phase = r.rec.begin("setup again", 0)
	setupS, err := su.again()
	if err != nil {
		return err
	}
	r.rec.end(phase)

	// Stage table and the metrics derived from it. The times are at
	// nominal host speed, like the metrics made of them; a traced run has
	// no yardstick and prints them as measured.
	r.logf("stage             reps      T1 (s)      T%d (s)   speedup", nproc)
	var tps, speedups []float64
	med := map[string]float64{}
	for _, g := range groups {
		for _, s := range g.stages {
			t1, tp := midmean(times[s][1]), midmean(times[s][nproc])
			med[s] = tp
			tps = append(tps, tp)
			speedups = append(speedups, t1/tp)
			r.logf("%-16s %5d %11.4f %11.4f %9.2f", s, len(times[s][nproc]), t1, tp, t1/tp)
		}
	}
	queries := pq.summary()
	batches := summarize(samplesOf(batchCalls), 1)
	batches.raw = summarize(samplesOf(rawCalls), 1).raw
	r.emit("setup_s", setupS)
	r.emit("rss_mb", median(rss.mb))
	r.emit("knn_per_s", float64(in.u2.Len())/med["kdtree.allknn"])
	r.emit("knn_p50_us", queries.p50/1e3)
	r.emit("knn_p95_us", queries.p95/1e3)
	r.emit("update_pts_per_s", 2*float64(in.b5.Len())/(med["bdltree.insert"]+med["bdltree.delete"]))
	r.emit("update_p50_us", batches.p50/1e3)
	r.emit("update_p95_us", batches.p95/1e3)
	r.emit("batch_geomean_s", geomean(tps))
	if r.ref != nil {
		var rawTps []float64
		for _, g := range groups {
			for _, s := range g.stages {
				rawTps = append(rawTps, midmean(rawTimes[s][nproc]))
			}
		}
		r.info("raw.batch_geomean_s", geomean(rawTps), "s")
	}
	r.info("batch_speedup", geomean(speedups), "x")
	r.tails("knn", queries)
	r.tails("update", batches)
	if r.trace {
		// The stage table is the per-layer view of this workload: each
		// stage is one layer's public entry point timed from outside.
		for _, s := range []string{"hull2d", "hull3d", "seb"} {
			r.emit(s+".time_s", med[s])
			r.emit(s+".speedup", midmean(times[s][1])/med[s])
		}
		n := float64(in.u2.Len())
		r.emit("kdtree.build_ns_per_pt", med["kdtree.build"]*1e9/n)
		r.emit("kdtree.build_speedup", midmean(times["kdtree.build"][1])/med["kdtree.build"])
		r.emit("kdtree.allknn_ns_per_pt", med["kdtree.allknn"]*1e9/n)
		parlayLoops(r)
	}
	return nil
}

// parlayLoops times the scheduler's two primitives everything above is
// built from: an empty-bodied parallel loop and a sort, at P=nproc.
func parlayLoops(r *run) {
	phase := r.rec.begin("parlay", 0)
	defer r.rec.end(phase)
	const tasks = 1 << 20
	sink := make([]int32, tasks)
	r.emit("parlay.for_ns_per_task", midmeanOf(5, func() { parlay.For(tasks, 1, func(i int) { sink[i]++ }) })*1e9/tasks)
	keys := make([]uint64, tasks)
	rnd := stream(r.seed, "sort")
	r.emit("parlay.sort_ns_per_key", midmeanOf(5, func() {
		for i := range keys {
			keys[i] = rnd.Next64()
		}
		parlay.Sort(keys, func(a, b uint64) bool { return a < b })
	})*1e9/tasks)
}

// samplesOf wraps bare durations (ns) as samples of one window.
func samplesOf(durs []float64) []sample {
	out := make([]sample, len(durs))
	for i, d := range durs {
		out[i] = sample{dur: int64(d)}
	}
	return out
}
