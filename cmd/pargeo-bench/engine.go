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
// shows what snapshot isolation and sharding buy. The write group column
// is the engine's Updates/Commits over the row: how many concurrent
// updates each commit absorbed, the write combiner's whole payoff.
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
		{8, 0}, // writers alone: where commit groups form
	}

	// The seeded domain: the founding insertion fixes world box and shard
	// boundaries, and writers derive their churn regions from its extent.
	seedPts := generators.UniformCube(n, dim, seed)
	domain := geom.BoundingBoxAll(seedPts)

	// setup returns the target's read and write calls, and its engine's
	// counters (nil for the mutex baseline, which has no commit groups).
	type target struct {
		name  string
		setup func() (query func(q []float64), update func(ins, del geom.Points), stats func() engine.Stats)
	}
	var targets []target
	for _, s := range shardCounts {
		s := s
		targets = append(targets, target{fmt.Sprintf("engine-s%d", s), func() (func([]float64), func(ins, del geom.Points), func() engine.Stats) {
			e := engine.New(dim, engine.Options{Shards: s})
			e.Insert(seedPts)
			return func(q []float64) { e.KNN(q, k) },
				func(ins, del geom.Points) { e.Update(ins, del) },
				e.Stats
		}})
	}
	targets = append(targets, target{"mutex-bdl", func() (func([]float64), func(ins, del geom.Points), func() engine.Stats) {
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
			},
			nil
	}})

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "target\twriters\treaders\tqueries/s\tupdates/s\twrite group")
	for _, tg := range targets {
		for _, cfg := range configs {
			query, update, stats := tg.setup()
			var before engine.Stats
			if stats != nil {
				before = stats()
			}
			qps, ups := runMixed(cfg.writers, cfg.readers, measure, domain, seed, updBatch, query, update)
			group := "-"
			if stats != nil {
				after := stats()
				group = fmt.Sprintf("%.2f", float64(after.Updates-before.Updates)/float64(max(after.Commits-before.Commits, 1)))
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%.3g\t%.3g\t%s\n",
				tg.name, cfg.writers, cfg.readers, qps, ups, group)
		}
	}
	w.Flush()
	fmt.Println("\nEach update inserts a fresh batch of", updBatch, "points into the writer's")
	fmt.Println("quadrant and deletes the previous one (dataset stationary; both update")
	fmt.Println("halves exercised). Engine readers never block on writers (snapshot")
	fmt.Println("isolation), and with S > 1 writers in disjoint quadrants commit on")
	fmt.Println("disjoint shards in parallel. Write group is updates per commit: the")
	fmt.Println("updates that parked behind a running commit and shared the next one.")
	fmt.Println("Update scaling with S needs real cores: on a single-core host the")
	fmt.Println("shard commit streams time-slice one CPU.")
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
// configuration is observed for; the per-window median is recorded. The
// median discards windows distorted by a GC pause, warmup deletes, or
// lock-fairness luck (the mutex baseline at few writers is especially
// jittery window to window).
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
