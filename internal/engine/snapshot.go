package engine

import (
	"math"
	"slices"

	"pargeo/internal/bdltree"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/parlay"
)

// Snapshot is one immutable committed version of the point set: the coupled
// vector of per-shard BDL-tree versions published together by a commit,
// plus the epoch at which the vector was swapped in. All methods are safe
// for concurrent use and always answer from this version, regardless of
// later commits. An unsharded engine (and a sharded one before its
// partition-defining first insertion) carries a single tree and no
// partition.
type Snapshot struct {
	eng   *Engine    // owner: Release, k-NN buffer pools, query counter (nil in tests that build Snapshots by hand)
	part  *partition // nil until sharded mode is established
	trees []*bdltree.Tree
	epoch uint64
	size  int
}

// Epoch returns the snapshot's commit epoch (0 for the empty initial
// version).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Size returns the number of live points in the snapshot.
func (s *Snapshot) Size() int { return s.size }

// Shards returns the number of shards the snapshot's version vector holds
// (1 until a sharded engine's partition is established).
func (s *Snapshot) Shards() int { return len(s.trees) }

// KNN returns, for each query row, the global ids of its k nearest points
// (sorted by increasing distance; fewer than k when the snapshot is
// smaller), data-parallel over the queries. Each query walks the shards
// nearest-first through one shared k-NN buffer, so the radius bound
// established by earlier shards prunes — usually skips — the rest. It
// panics when k < 1.
func (s *Snapshot) KNN(queries geom.Points, k int) [][]int32 {
	pool := s.knnPool(k)
	n := queries.Len()
	s.countQueries(n)
	out := make([][]int32, n)
	if pool == nil {
		return out
	}
	parlay.ForBlocked(n, 32, func(lo, hi int) {
		buf := pool.Get()
		var scratch [16]shardDist // the shard order, on this frame as in KNNInto
		order := scratch[:0]
		for i := lo; i < hi; i++ {
			buf.Reset()
			order = s.knnOne(queries.At(i), -1, buf, order)
			out[i] = buf.Result(nil)
		}
		pool.Put(buf)
	})
	return out
}

// knnPool returns the buffer pool a k-neighbour read of the snapshot draws
// from, or nil when the snapshot is empty. k arrives unchecked from the
// wire and a query cannot return more ids than the snapshot holds, so k is
// clamped to the live size here, before it sizes any buffer or pool.
func (s *Snapshot) knnPool(k int) *kdtree.BufferPool {
	if k < 1 {
		panic("engine: KNN requires k >= 1")
	}
	if s.size == 0 {
		return nil
	}
	k = min(k, s.size)
	if s.eng == nil {
		return kdtree.NewBufferPool(k)
	}
	return s.eng.knnPool(k)
}

// countQueries adds n answered queries to the owning engine's Stats.
func (s *Snapshot) countQueries(n int) {
	if s.eng != nil {
		s.eng.statQueries.Add(uint64(n))
	}
}

// KNNInto accumulates the snapshot's candidates for query q into buf, which
// the caller owns and may have pre-loaded with candidates from elsewhere —
// the multi-shard analogue of bdltree.Tree.KNNInto, with the same contract:
// shards feed one shared buffer whose shrinking k-th-distance bound prunes
// the remaining shards, and the buffer afterward holds exactly the global k
// nearest. exclude (or -1) is a global id to skip.
func (s *Snapshot) KNNInto(q []float64, exclude int32, buf *kdtree.KNNBuffer) {
	// The shard order lives on this frame (knnOne's append moves it to the
	// heap only past 16 shards), so a reused buffer makes the call
	// allocation-free.
	var order [16]shardDist
	s.knnOne(q, exclude, buf, order[:0])
}

// AllKNN answers one k-NN query per row of queries against the snapshot,
// returning flat row-major ids: query i's neighbors occupy
// ids[i*k : (i+1)*k], sorted by increasing distance and padded with -1 when
// the snapshot holds fewer than k live points (empty shards included). If
// sqDists is non-nil it must have length queries.Len()*k and receives the
// matching squared distances (+Inf padding) — exactly the row contract of
// kdtree.Tree.AllKNN, so sharded and single-tree batch answers are
// interchangeable. Because rows pad to k by contract, k is not clamped to
// the snapshot's size as KNN's is; no wire request reaches this method.
func (s *Snapshot) AllKNN(queries geom.Points, k int, sqDists []float64) []int32 {
	if k <= 0 {
		panic("engine: AllKNN requires k >= 1")
	}
	n := queries.Len()
	if sqDists != nil && len(sqDists) != n*k {
		panic("engine: AllKNN sqDists length must be queries.Len()*k")
	}
	ids := make([]int32, n*k)
	s.allKNN(queries, nil, k, ids, sqDists)
	return ids
}

// allKNN is the one blocked parallel loop of AllKNN and the analytics
// jobs: query i skips the global id exclude[i] when exclude is not nil.
// ids (if non-nil) and sqDists (if non-nil) receive flat row-major results
// with -1/+Inf padding.
func (s *Snapshot) allKNN(queries geom.Points, exclude []int32, k int, ids []int32, sqDists []float64) {
	parlay.ForBlocked(queries.Len(), 32, func(lo, hi int) {
		buf := kdtree.NewKNNBuffer(k)
		var order []shardDist
		row := make([]int32, k)
		drow := make([]float64, k)
		for i := lo; i < hi; i++ {
			ex := int32(-1)
			if exclude != nil {
				ex = exclude[i]
			}
			buf.Reset()
			order = s.knnOne(queries.At(i), ex, buf, order)
			m := buf.ResultInto(row, drow)
			for j := m; j < k; j++ {
				row[j] = -1
				drow[j] = math.Inf(1)
			}
			if ids != nil {
				copy(ids[i*k:(i+1)*k], row)
			}
			if sqDists != nil {
				copy(sqDists[i*k:(i+1)*k], drow)
			}
		}
	})
}

type shardDist struct {
	s int
	d float64
}

// knnOne accumulates the k nearest neighbors of q into buf. Shards are
// visited in increasing order of their conservative Morton-range distance
// bound; once the buffer is full, any shard whose bound is at or beyond the
// current k-th distance — and, the order being sorted, every shard after it
// — is pruned. scratch is reused across calls to avoid allocation.
func (s *Snapshot) knnOne(q []float64, exclude int32, buf *kdtree.KNNBuffer, scratch []shardDist) []shardDist {
	if s.part == nil || len(s.trees) == 1 {
		s.trees[0].KNNInto(q, exclude, buf)
		return scratch
	}
	// Insertion sort as the shards are appended: S is a handful, and
	// sort.Slice would allocate a closure and a reflection swapper per query.
	order := scratch[:0]
	for sh := range s.trees {
		if s.trees[sh].Size() == 0 {
			continue
		}
		sd := shardDist{sh, s.part.minSqDist(sh, q)}
		i := len(order)
		order = append(order, sd)
		for ; i > 0 && order[i-1].d > sd.d; i-- {
			order[i] = order[i-1]
		}
		order[i] = sd
	}
	for _, sd := range order {
		if sd.d >= buf.Bound() { // Bound() is +inf until k candidates seen
			break
		}
		s.trees[sd.s].KNNInto(q, exclude, buf)
	}
	return order
}

// rangeShards returns the shards that can intersect box (all of them in
// unsharded mode).
func (s *Snapshot) rangeShards(box geom.Box) []int {
	if s.part == nil || len(s.trees) == 1 {
		return []int{0}
	}
	var out []int
	for sh := range s.trees {
		if s.trees[sh].Size() > 0 && s.part.overlaps(sh, box) {
			out = append(out, sh)
		}
	}
	return out
}

// RangeSearch returns the global ids of all points inside the closed box:
// shards pruned by box-vs-Morton-range overlap, survivors searched as one
// parallel fan-out, results concatenated in shard order.
func (s *Snapshot) RangeSearch(box geom.Box) []int32 {
	s.countQueries(1)
	shards := s.rangeShards(box)
	if len(shards) == 1 {
		return s.trees[shards[0]].RangeSearch(box)
	}
	parts := make([][]int32, len(shards))
	parlay.For(len(shards), 1, func(i int) { parts[i] = s.trees[shards[i]].RangeSearch(box) })
	return slices.Concat(parts...)
}

// RangeCount returns the number of points inside the closed box, with the
// same shard pruning and fan-out as RangeSearch.
func (s *Snapshot) RangeCount(box geom.Box) int {
	s.countQueries(1)
	shards := s.rangeShards(box)
	if len(shards) == 1 {
		return s.trees[shards[0]].RangeCount(box)
	}
	counts := make([]int, len(shards))
	parlay.For(len(shards), 1, func(i int) { counts[i] = s.trees[shards[i]].RangeCount(box) })
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// Points returns the coordinates and global ids of the snapshot's live
// points across all shards (a verification helper for differential tests;
// O(n)).
func (s *Snapshot) Points() (geom.Points, []int32) {
	var dim int
	var coords []float64
	var gids []int32
	for _, tr := range s.trees {
		pts, ids := tr.Points()
		dim = pts.Dim
		coords = append(coords, pts.Data...)
		gids = append(gids, ids...)
	}
	return geom.Points{Data: coords, Dim: dim}, gids
}
