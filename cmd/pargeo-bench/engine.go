package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"pargeo/internal/bdltree"
	"pargeo/internal/engine"
	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/rng"
)

// engineBench measures the serving path: mixed read/write throughput of the
// concurrent query engine under w writer goroutines issuing small batched
// updates and r reader goroutines issuing single-point k-NN and range
// queries, swept over the engine's Morton shard count. Writers churn
// disjoint quadrant regions of the domain, so with S > 1 their commit
// streams land on different shards and commit in parallel — the sweep is
// the multi-writer scaling axis the sharded engine adds. The mutex
// baseline guards one BDL-tree with a single lock for both queries and
// updates — what a caller would write without the engine — so the table
// shows what snapshot isolation, query grouping, and sharding buy.
func engineBench(n int, seed uint64, shardCounts []int, measure time.Duration) {
	fmt.Println("=== engine: mixed read/write serving throughput (3D uniform) ===")
	const (
		dim      = 3
		k        = 5
		updBatch = 512
	)
	configs := []struct{ writers, readers int }{
		{1, 4},
		{2, 8},
		{4, 8},
		{8, 16},
	}

	// The seeded domain: the founding insertion fixes world box and shard
	// boundaries, and writers derive their churn regions from its extent.
	seedPts := generators.UniformCube(n, dim, seed)
	domain := geom.BoundingBoxAll(seedPts)

	type target struct {
		name  string
		setup func() (query func(q []float64), update func(ins, del geom.Points))
	}
	var targets []target
	for _, s := range shardCounts {
		s := s
		targets = append(targets, target{fmt.Sprintf("engine-s%d", s), func() (func([]float64), func(ins, del geom.Points)) {
			e := engine.New(dim, engine.Options{Shards: s})
			e.Insert(seedPts)
			return func(q []float64) { e.KNN(q, k) },
				func(ins, del geom.Points) { e.Update(ins, del) }
		}})
	}
	targets = append(targets, target{"mutex-bdl", func() (func([]float64), func(ins, del geom.Points)) {
		var mu sync.Mutex
		tr := bdltree.New(dim, bdltree.Options{})
		tr.Insert(seedPts)
		return func(q []float64) {
				mu.Lock()
				tr.KNN(geom.Points{Data: q, Dim: dim}, k, nil)
				mu.Unlock()
			},
			func(ins, del geom.Points) {
				mu.Lock()
				if del.Len() > 0 {
					tr.Delete(del)
				}
				tr.Insert(ins)
				mu.Unlock()
			}
	}})

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "target\twriters\treaders\tqueries/s\tupdates/s")
	for _, tg := range targets {
		for _, cfg := range configs {
			query, update := tg.setup()
			qps, ups := runMixed(cfg.writers, cfg.readers, measure, domain, seed, updBatch, query, update)
			fmt.Fprintf(w, "%s\t%d\t%d\t%.3g\t%.3g\n",
				tg.name, cfg.writers, cfg.readers, qps, ups)
		}
	}
	w.Flush()
	fmt.Println("\nEach update inserts a fresh batch of", updBatch, "points into the writer's")
	fmt.Println("quadrant and deletes the previous one (dataset stationary; both update")
	fmt.Println("halves exercised). Engine readers never block on writers (snapshot")
	fmt.Println("isolation), concurrent queries group into shared data-parallel passes,")
	fmt.Println("and with S > 1 writers in disjoint quadrants commit on disjoint shards")
	fmt.Println("in parallel. Update scaling with S needs real cores: on a single-core")
	fmt.Println("host the shard commit streams time-slice one CPU.")
}

// engineDriftBench measures the rebalancer's reason to exist: a cold-start
// mis-founded partition under a drifting hot-spot serving load. The engine
// founds on a tiny unrepresentative seed huddled in the domain's min
// corner, so when the real point mass arrives nearly all of it lies beyond
// the founding world box and morton.Encode clamps it into the max-corner
// boundary cell: under the frozen partition (rebal=off) the whole data set
// — and every subsequent write — funnels into ONE edge shard, collapsing
// S=4 to a single commit stream over one big tree. With -rebalance on, the
// out-of-world drift counter trips, the partition is rebuilt under a
// widened world, and the slowly drifting per-quadrant churn stays spread
// over all S shards (write-weighted splits track it between repartitions).
// The headline comparison is updates/s at 8 writers.
func engineDriftBench(n int, seed uint64, rebalModes []bool) {
	fmt.Println("=== engine: drifting hot-spot + cold-start mis-founding, rebalancer sweep (2D, S=4) ===")
	const (
		dim    = 2
		shards = 4
		batchB = 128
		seedN  = 2048
	)
	bulk := generators.UniformCube(n, dim, seed)
	domain := geom.BoundingBoxAll(bulk)
	ext := domain.Max[0] - domain.Min[0]
	// The mis-founding seed: a dense huddle in the min corner, 1/16th of
	// the domain's extent per side.
	seedPts := geom.NewPoints(seedN, dim)
	r0 := rng.NewXoshiro256(seed + 13)
	for i := 0; i < seedN; i++ {
		p := seedPts.At(i)
		for c := range p {
			p[c] = domain.Min[c] + r0.Float64()*ext/16
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "target\twriters\treaders\tqueries/s\tupdates/s\tmigrations\tshard sizes")
	for _, cfg := range []struct{ writers, readers int }{{8, 8}} {
		for _, rebal := range rebalModes {
			mode := "off"
			if rebal {
				mode = "on"
			}
			e := engine.New(dim, engine.Options{Shards: shards, Rebalance: rebal})
			e.Insert(seedPts)
			// The real mass arrives in service-sized batches after the
			// partition has already frozen around the seed.
			for lo := 0; lo < bulk.Len(); lo += 8192 {
				hi := lo + 8192
				if hi > bulk.Len() {
					hi = bulk.Len()
				}
				e.Insert(bulk.Slice(lo, hi))
			}
			// Cold-start settle, identical in both modes: gives the
			// background rebalancer (when enabled) its one bulk-arrival
			// repartition before the steady-state window opens.
			time.Sleep(150 * time.Millisecond)
			qps, ups := runDrift(e, cfg.writers, cfg.readers, domain, seed, batchB)
			sizes := e.Snapshot().ShardSizes()
			migrations := e.Rebalances()
			e.Close()
			name := fmt.Sprintf("drift-s%d-rebal=%s", shards, mode)
			fmt.Fprintf(w, "%s\t%d\t%d\t%.3g\t%.3g\t%d\t%v\n",
				name, cfg.writers, cfg.readers, qps, ups, migrations, sizes)
		}
	}
	w.Flush()
	fmt.Println("\nThe engine founds on a", seedN, "-point seed in the domain's corner; the")
	fmt.Println("real", n, "-point mass then arrives beyond the founding box and — frozen —")
	fmt.Println("aliases into one boundary shard (see the shard-size vectors). Writers")
	fmt.Println("churn per-quadrant", batchB, "-point batches whose regions drift slowly")
	fmt.Println("across the domain; readers issue k-NN probes throughout. The rebalancer")
	fmt.Println("repartitions under a widened world at the bulk arrival and keeps the")
	fmt.Println("drifting churn spread with write-weighted splits thereafter.")
}

// Drift measurement protocol: a fixed number of fixed-length windows with
// the median taken per metric. Windows are fixed (rather than
// -measure-scaled) because the drift workload is not perfectly
// stationary, so numbers from different window lengths would not be
// comparable; the median discards the odd window distorted by a GC pause
// or a migration.
const (
	driftWindows = 5
	driftWindow  = time.Second
)

// runDrift drives the drifting hot-spot serving load: writer i churns a
// per-quadrant region that drifts diagonally by ext/20000 per round (each
// round commits a fresh batch and deletes the previous one in one atomic
// update), while readers issue k-NN probes across the whole domain.
// Returns median per-window throughputs (queries/s, updates/s).
func runDrift(e *engine.Engine, writers, readers int, domain geom.Box,
	seed uint64, batchB int) (qps, ups float64) {
	const k = 5
	dim := len(domain.Min)
	ext := domain.Max[0] - domain.Min[0]
	var stop atomic.Bool
	var q, u atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.NewXoshiro256(seed + uint64(i)*1e6 + 29)
			var prev geom.Points
			for round := 0; !stop.Load(); round++ {
				region := writerRegion(i, domain)
				off := float64(round) * ext / 20000
				batch := geom.NewPoints(batchB, dim)
				for j := 0; j < batchB; j++ {
					p := batch.At(j)
					for c := range p {
						p[c] = region.Min[c] + off + r.Float64()*(region.Max[c]-region.Min[c])
					}
				}
				e.Update(batch, prev)
				prev = batch
				u.Add(1)
			}
		}()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.NewXoshiro256(seed + uint64(i)*7919 + 3)
			probe := make([]float64, dim)
			for !stop.Load() {
				for c := range probe {
					probe[c] = domain.Min[c] + r.Float64()*(domain.Max[c]-domain.Min[c])
				}
				e.KNN(probe, k)
				q.Add(1)
			}
		}()
	}
	var qd, ud []float64
	for w := 0; w < driftWindows; w++ {
		q0, u0 := q.Load(), u.Load()
		time.Sleep(driftWindow)
		qd = append(qd, float64(q.Load()-q0)/driftWindow.Seconds())
		ud = append(ud, float64(u.Load()-u0)/driftWindow.Seconds())
	}
	stop.Store(true)
	wg.Wait()
	sort.Float64s(qd)
	sort.Float64s(ud)
	return qd[driftWindows/2], ud[driftWindows/2]
}

// writerRegion returns writer i's churn region: one cell of the 2x2
// quadrant grid over the domain's LAST two dimensions — the ones holding a
// Morton code's most significant bits, so the quantile boundaries of a
// uniform domain separate exactly these quadrants and distinct quadrants
// land on distinct shards for S >= 4.
func writerRegion(i int, domain geom.Box) geom.Box {
	b := geom.Box{Min: append([]float64(nil), domain.Min...), Max: append([]float64(nil), domain.Max...)}
	for j := 0; j < 2 && j < len(b.Min); j++ {
		d := len(b.Min) - 1 - j
		mid := (domain.Min[d] + domain.Max[d]) / 2
		if (i>>j)&1 == 0 {
			b.Max[d] = mid
		} else {
			b.Min[d] = mid
		}
	}
	return b
}

// mixedWindows is the number of -measure-length windows each engine
// configuration is observed for; the per-window median is recorded. Like
// the drift experiment's protocol, the median discards windows distorted
// by a GC pause, warmup deletes, or lock-fairness luck (the mutex baseline
// at few writers is especially jittery window to window).
const mixedWindows = 3

// runMixed drives the query/update closures from the requested goroutine
// counts and returns median per-window throughputs (queries/s, updates/s).
func runMixed(writers, readers int, d time.Duration, domain geom.Box, seed uint64,
	updBatch int, query func([]float64), update func(ins, del geom.Points)) (qps, ups float64) {
	dim := len(domain.Min)
	var stop atomic.Bool
	var q, u atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each writer churns its own quadrant so updates from different
			// writers land on different shards: every round inserts a fresh
			// batch and deletes the previous one, keeping the dataset
			// stationary and exercising both halves of the update path.
			region := writerRegion(i, domain)
			r := rng.NewXoshiro256(seed + uint64(i)*1e6 + 17)
			var prev geom.Points
			for !stop.Load() {
				batch := geom.NewPoints(updBatch, dim)
				for j := 0; j < updBatch; j++ {
					p := batch.At(j)
					for c := range p {
						p[c] = region.Min[c] + r.Float64()*(region.Max[c]-region.Min[c])
					}
				}
				update(batch, prev)
				prev = batch
				u.Add(1)
			}
		}()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.NewXoshiro256(seed + uint64(i)*7919)
			probe := make([]float64, dim)
			for !stop.Load() {
				for c := range probe {
					probe[c] = domain.Min[c] + r.Float64()*(domain.Max[c]-domain.Min[c])
				}
				query(probe)
				q.Add(1)
			}
		}()
	}
	var qd, ud []float64
	for w := 0; w < mixedWindows; w++ {
		q0, u0 := q.Load(), u.Load()
		time.Sleep(d)
		qd = append(qd, float64(q.Load()-q0)/d.Seconds())
		ud = append(ud, float64(u.Load()-u0)/d.Seconds())
	}
	stop.Store(true)
	wg.Wait()
	sort.Float64s(qd)
	sort.Float64s(ud)
	return qd[mixedWindows/2], ud[mixedWindows/2]
}
