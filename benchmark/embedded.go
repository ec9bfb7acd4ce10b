package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"pargeo/internal/engine"
	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

// embedded is an in-process engine loaded with a base set.
type embedded struct {
	eng  *engine.Engine
	base geom.Points
	ids  []int32 // ids of the base rows
	dir  string  // durability directory, "" when non-durable
}

func (e *embedded) close() {
	if e == nil || e.eng == nil {
		return
	}
	e.eng.Close() //nolint:errcheck // teardown of a discarded instance
	e.eng = nil
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// engineUpdater adapts Engine.Update to the churn stream.
func engineUpdater(eng *engine.Engine) updater {
	return func(ins, del geom.Points) (int, uint64, []int32, error) {
		res := eng.Update(ins, del)
		return res.Deleted, res.Epoch, res.IDs, res.Err
	}
}

// engineCounters emits the workload-scoped engine counters of a traced
// run: how well the combiners grouped, measured where the work happened.
func engineCounters(r *run, before, after engine.Stats) {
	if !r.trace {
		return
	}
	ratio := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	r.emit("engine.read_group_size", ratio(after.Queries-before.Queries, after.QueryGroups-before.QueryGroups))
	r.emit("engine.write_group_size", ratio(after.Updates-before.Updates, after.Commits-before.Commits))
	r.emit("engine.shed", float64(after.Shed-before.Shed))
}

// segments is how many pieces the timed phase of a workload is cut into.
// After each piece the host yardstick takes a slice (hostRef), and after
// every third a batch job runs, so that both are spread over the whole run
// and see the same mix of the host's fast and slow seconds as everything
// else, not one contiguous stretch of it.
const (
	segments   = 24
	batchEvery = 3
)

// batchJobs collects the durations of a workload's batch jobs, each scaled
// to nominal host speed by the yardstick slices around it.
type batchJobs struct{ took, raw []float64 }

func (b *batchJobs) add(r *run, d time.Duration) {
	b.raw = append(b.raw, d.Seconds())
	b.took = append(b.took, d.Seconds()/r.ref.around())
}

// emit reports batch_geomean_s: the midmean of the jobs.
func (b *batchJobs) emit(r *run) {
	if r.ref != nil {
		r.info("raw.batch_geomean_s", midmean(b.raw), "s")
	}
	r.emit("batch_geomean_s", midmean(b.took))
}

// snapshotBatchJobs times n multi-query passes, Snapshot.KNN over the
// first ledgerQ queries — the call the server makes for a multi-query
// request, so this number and serve-mixed's batch_geomean_s differ by the
// wire. The caller took a yardstick slice just before.
func snapshotBatchJobs(r *run, eng *engine.Engine, queries geom.Points, parent int32, n int, jobs *batchJobs) {
	batch := queries.Slice(0, min(r.sz.ledgerQ, queries.Len()))
	snap := eng.Snapshot()
	ln := r.rec.lane()
	for i := 0; i < n; i++ {
		start := time.Now()
		snap.KNN(batch, knnK)
		end := time.Now()
		ln.add("Snapshot.KNN", parent, -1, start, end)
		jobs.add(r, end.Sub(start))
	}
	r.ops(int64(n), 0)
}

// runEmbedRead: a non-durable 4-shard engine preloaded with D2;
// max(1, nproc-1) closed-loop callers issue Q2 through Engine.KNN. It
// measures tree + kernel + read-combiner cost with zero wire, server,
// client or WAL work: a wire-path change must not move it, a kernel or
// tree change must. One processor is left to the runtime and the kernel:
// with a caller on every processor the callers' throughput was lower in
// sum than one caller's alone (56 k against 65 k k-NN/s on two processors)
// and tracked where the host had put the two virtual processors, not the
// program. After the read windows the same engine runs batch jobs and a
// short write-only stream, so every end-to-end metric has a non-durable,
// no-wire reading to compare embed-churn and serve-mixed against.
func runEmbedRead(r *run) error {
	nproc := r.fp.NProc
	callers := max(1, nproc-1)
	if err := checkSizing(nproc, nproc, 0, 0); err != nil {
		return err
	}
	runtime.GOMAXPROCS(nproc)
	r.fp.GOMAXPROCS = nproc
	rss := rssSampler{ref: r.ref}

	phase := r.rec.begin("setup", 0)
	su := &setups[*embedded]{r: r, teardown: (*embedded).close, setup: func() (*embedded, error) {
		d2 := datasetD2(r.sz.d2)
		eng := engine.New(2, engine.Options{Shards: shards})
		res := eng.Insert(d2)
		return &embedded{eng: eng, base: d2, ids: res.IDs}, res.Err
	}}
	em, err := su.start()
	if err != nil {
		return err
	}
	defer em.close()
	r.rec.end(phase)
	q2 := queriesQ2(em.base, r.sz.q2, r.seed)
	before := em.eng.Stats()
	var after engine.Stats

	// Closed-loop reads in segments, a batch job after every third. Every
	// 1000th answer of each caller is kept and verified after the clock
	// stops.
	readSeg := time.Duration(0.55 * r.seconds / segments * float64(time.Second))
	kept := make([][]knnCheck, callers)
	asked := make([]int, callers)
	read := func(g, _ int) (time.Time, time.Time, error) {
		i := asked[g]
		asked[g]++
		q := q2.At((g*q2.Len()/callers + i) % q2.Len())
		start := time.Now()
		ids := em.eng.KNN(q, knnK)
		end := time.Now()
		if i%1000 == 999 {
			kept[g] = append(kept[g], knnCheck{q: q, ids: ids})
		}
		return start, end, nil
	}
	closedLoop(callers, readSeg, nil, -1, "", read) //nolint:errcheck // warm-up: caches and pools fill, nothing is recorded
	phase = r.rec.begin("reads+batch", 0)
	var reads timeline
	var jobs batchJobs
	r.ref.slice()
	for seg := 0; seg < segments; seg++ {
		got, _ := closedLoop(callers, readSeg, r.rec, phase, "Engine.KNN", read)
		reads.add(got.samples, got.took, r.ref.around())
		if seg%batchEvery == batchEvery-1 {
			rss.sample()
			snapshotBatchJobs(r, em.eng, q2, phase, 2, &jobs)
		}
	}
	after = em.eng.Stats()
	r.rec.end(phase)
	rss.sample()

	// Write-only tail: the churn stream through the non-durable engine.
	ch := newChurn(em.base, em.ids, updBatch, updLag, stream(r.seed, "churn"))
	updSeg := time.Duration(0.27 * r.seconds / (segments / 2) * float64(time.Second))
	phase = r.rec.begin("updates", 0)
	apply := engineUpdater(em.eng)
	var upds timeline
	var updFailed int64
	for seg := 0; seg < segments/2; seg++ {
		wrote, err := closedLoop(1, updSeg, r.rec, phase, "Engine.Update", func(_, _ int) (time.Time, time.Time, error) {
			return ch.step(apply)
		})
		if err != nil {
			return fmt.Errorf("embed-read update: %w", err)
		}
		upds.add(wrote.samples, wrote.took, r.ref.around())
		updFailed += wrote.failed
	}
	r.rec.end(phase)
	rss.sample()

	phase = r.rec.begin("verify", 0)
	var checks []knnCheck
	for _, k := range kept {
		checks = append(checks, k...)
	}
	checked, wrong := verifyKNN(em.base, rowIndex(em.ids), knnK, checks, r.sz.maxChecks)
	r.rec.end(phase)
	if got, want := em.eng.Size(), em.base.Len(); got != want {
		wrong++
		r.logf("WRONG   live size %d after churn, want %d", got, want)
	}
	r.ops(int64(len(reads.samples)+len(upds.samples))+updFailed+int64(checked)+1, updFailed+ch.wrong+int64(wrong))
	em.close()
	phase = r.rec.begin("setup again", 0)
	setupS, err := su.again()
	if err != nil {
		return err
	}
	r.rec.end(phase)

	rs, us := reads.summary(), upds.summary()
	r.emit("setup_s", setupS)
	r.emit("rss_mb", median(rss.mb))
	r.emit("knn_per_s", rs.perSec)
	r.emit("knn_p50_us", rs.p50/1e3)
	r.emit("knn_p95_us", rs.p95/1e3)
	r.emit("update_pts_per_s", us.perSec*2*updBatch)
	r.emit("update_p50_us", us.p50/1e3)
	r.emit("update_p95_us", us.p95/1e3)
	jobs.emit(r)
	r.tails("knn", rs)
	r.tails("update", us)
	r.info("knn_checked", float64(checked), "count")
	engineCounters(r, before, after)
	if r.trace {
		return ledgerReads(r, em.base, q2)
	}
	return nil
}

// runEmbedChurn: a durable engine (SyncEvery 64, no automatic
// checkpoints, real files) holding 200k uniform 3-D points. One writer
// closed-loop inserts a fresh 512-point batch and deletes the batch
// inserted 64 updates earlier; max(1, nproc-1) readers issue k=8 k-NN
// beside it; one explicit Checkpoint runs at the midpoint. Then Close,
// Open on the same directory, and compare the recovered live set with the
// model. It is the write side of the same engine — bdltree persistent
// insert/delete and ladder rebuilds, kdtree.Build, parlay, the commit
// path, the WAL — with reads beside writes, so a write gain bought with
// read latency (or the reverse) shows.
func runEmbedChurn(r *run) error {
	nproc := r.fp.NProc
	readers := max(1, nproc-1)
	if err := checkSizing(nproc, min(nproc, readers+1), 0, 0); err != nil {
		return err
	}
	runtime.GOMAXPROCS(nproc)
	r.fp.GOMAXPROCS = nproc
	rss := rssSampler{ref: r.ref}
	const dim = 3
	opts := func(dir string) engine.Options {
		return engine.Options{Shards: shards, Durability: &engine.Durability{Dir: dir, SyncEvery: 64, CheckpointEvery: 0}}
	}

	phase := r.rec.begin("setup", 0)
	su := &setups[*embedded]{r: r, teardown: (*embedded).close, setup: func() (*embedded, error) {
		dir, err := r.tempDir("churn")
		if err != nil {
			return nil, err
		}
		base := generators.UniformCube(r.sz.churnBase, dim, r.seed)
		eng, err := engine.Open(dim, opts(dir))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		res := eng.Insert(base)
		return &embedded{eng: eng, base: base, ids: res.IDs, dir: dir}, res.Err
	}}
	em, err := su.start()
	if err != nil {
		em.close()
		return err
	}
	defer em.close()
	r.rec.end(phase)
	queries := queriesQ2(em.base, r.sz.q2, r.seed)
	before := em.eng.Stats()

	// The churn in segments: one writer, readers beside it, the checkpoint
	// beside the first segment of the second half, two batch jobs after
	// every third segment.
	segD := time.Duration(0.82 * r.seconds / segments * float64(time.Second))
	ch := newChurn(em.base, em.ids, updBatch, updLag, stream(r.seed, "churn"))
	apply := engineUpdater(em.eng)
	asked := make([]int, readers)
	phase = r.rec.begin("churn+batch", 0)
	var (
		reads, upds timeline
		updFailed   int64
		jobs        batchJobs
		ckptS       float64
		after       engine.Stats
	)
	r.ref.slice()
	for seg := 0; seg < segments; seg++ {
		var wg sync.WaitGroup
		var got loopResult
		var ckptErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ = closedLoop(readers, segD, r.rec, phase, "Engine.KNN", func(g, _ int) (time.Time, time.Time, error) {
				q := queries.At((g*queries.Len()/readers + asked[g]) % queries.Len())
				asked[g]++
				start := time.Now()
				em.eng.KNN(q, knnK)
				return start, time.Now(), nil
			})
		}()
		if seg == segments/2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				ckptErr = em.eng.Checkpoint()
				ckptS = time.Since(start).Seconds()
			}()
		}
		wrote, err := closedLoop(1, segD, r.rec, phase, "Engine.Update", func(_, _ int) (time.Time, time.Time, error) {
			return ch.step(apply)
		})
		wg.Wait()
		if err == nil {
			err = ckptErr
		}
		if err != nil {
			return fmt.Errorf("embed-churn: %w", err)
		}
		slow := r.ref.around()
		reads.add(got.samples, got.took, slow)
		upds.add(wrote.samples, wrote.took, slow)
		updFailed += wrote.failed
		if seg == segments-1 {
			after = em.eng.Stats()
		}
		if seg%batchEvery == batchEvery-1 {
			rss.sample()
			snapshotBatchJobs(r, em.eng, queries, phase, 2, &jobs)
		}
	}
	r.rec.end(phase)
	rss.sample()

	// Restart: close, recover from the same directory, compare with the
	// model.
	phase = r.rec.begin("recover", 0)
	if err := em.eng.Close(); err != nil {
		return fmt.Errorf("embed-churn close: %w", err)
	}
	start := time.Now()
	if em.eng, err = engine.Open(dim, opts(em.dir)); err != nil {
		return fmt.Errorf("embed-churn recover: %w", err)
	}
	recoverS := time.Since(start).Seconds()
	r.rec.end(phase)
	wrong := int64(0)
	snap := em.eng.Snapshot()
	pts, ids := snap.Points()
	if diff := liveSetDiff(ch.model(em.base, em.ids), pts, ids); diff != "" {
		wrong++
		r.logf("WRONG   recovery: %s", diff)
	}
	if snap.Epoch() < ch.lastEpoch {
		wrong++
		r.logf("WRONG   recovered epoch %d below last acknowledged %d", snap.Epoch(), ch.lastEpoch)
	}
	r.ops(int64(len(reads.samples)+len(upds.samples))+updFailed+2, updFailed+ch.wrong+wrong)
	em.close()
	phase = r.rec.begin("setup again", 0)
	setupS, err := su.again()
	if err != nil {
		return err
	}
	r.rec.end(phase)

	rs, us := reads.summary(), upds.summary()
	r.emit("setup_s", setupS)
	r.emit("rss_mb", median(rss.mb))
	r.emit("knn_per_s", rs.perSec)
	r.emit("knn_p50_us", rs.p50/1e3)
	r.emit("knn_p95_us", rs.p95/1e3)
	r.emit("update_pts_per_s", us.perSec*2*updBatch)
	r.emit("update_p50_us", us.p50/1e3)
	r.emit("update_p95_us", us.p95/1e3)
	jobs.emit(r)
	r.info("recover_s", recoverS, "s")
	r.info("checkpoint_s", ckptS, "s")
	r.tails("knn", rs)
	r.tails("update", us)
	engineCounters(r, before, after)
	if r.trace {
		return ledgerWrites(r, em.base)
	}
	return nil
}
