// Package bdltree implements the BDL-tree (§5, Appendix C): a parallel
// batch-dynamic kd-tree built with the logarithmic method. A BDL-tree is a
// buffer tree of capacity X plus a ladder of static trees with capacities
// X·2^i (here with an open leaf in front of the buffer tree, see below);
// batch insertions rebuild the smallest prefix of trees needed (bitmask
// arithmetic, Algorithm 3), batch deletions erase in parallel from every
// tree and reinsert the contents of any tree that falls below half capacity
// (Algorithm 4; how the erase here differs is described below), and k-NN
// queries run data-parallel across query points, sharing one k-NN buffer
// per query across all the trees (Appendix C.4).
//
// Where this departs from the paper: the static trees are NOT laid out in
// the van Emde Boas order of Appendix C.1.1. Every level is a kdtree arena
// built by kdtree.BuildRows — preorder nodes, the level's own rows
// partitioned in place into leaf order, dimension-major float32 leaf slabs
// scanned by internal/kernel as a filter with float64 re-verification, one
// global id per row, 64-point leaves, and a tombstone bitset that does not
// exist until the level's first erase — so the repository has one k-NN
// traversal, one range traversal and one float64 fallback, in kdtree. And
// a k-NN walks the ladder LARGEST LEVEL FIRST, buffer tree last: every
// level is an unbiased sample of the same point set, so the big level
// almost always holds the true neighbours, and once the shared buffer's
// k-th-distance bound is that tight the small levels cost a descent and
// one leaf each. Measured at the commit that made the switch (≈ 516 k
// clustered 2-D points, 6 levels + buffer, k = 8, one caller;
// BenchmarkLadderKNN, BenchmarkLevelBuild, TestFootprintPerPoint):
//
//	                          ns/query   B/point   build ns/point
//	vEB levels, buffer first    14 700      52.5        275
//	arena levels, largest first  4 700      33.0        214
//	one static kd-tree           2 100
//
// Deletion (Algorithm 4) departs from the paper's Algorithm 2 erase in
// four ways. It is a POINT LOCATION per candidate, not a box-pruned walk
// of the candidate list: every level is a sample of the whole shard, so the
// candidates lie in every root box, and filtering the list against both
// children's boxes at every node did 2·Dim comparisons per candidate per
// node and grew a slice per node; kdtree.MatchRows compares a candidate
// with one split value per node and scans one f32 column at the leaf,
// level × 128-candidate block in parallel (Tree.erase). It is FILTERED: a
// candidate sits in one level at most, yet a lookup that misses still
// walks to a leaf, so every level of more than one leaf carries a blocked
// Bloom filter over its rows (filter.go: four bits in one word per row,
// 10 filter bits per row, no false negatives), and a candidate is located
// only in the levels its filter passes — 1.09 of them on the stream below,
// where every candidate used to be located in all 5.5. Removal is LAZY —
// a bit in a copy-on-write bitset, no leaf is rewritten. And there is ONE
// REBUILD PER COMMIT: erase does not rebalance; the survivors of trees left
// below half capacity join the loose points of the next insertWithIDs,
// which every update ends with (Delete passes it an empty batch, the
// engine's commit groups pass their insertions: PersistentUpdate).
// Measured at the commit that made the switch, on the benchmark's
// embed-churn stream (200 k uniform 3-D points, 512 deleted per call, one
// processor; BenchmarkChurnDelete, TestPersistentDeleteAllocs):
//
//	                          erase ns/deleted point   Delete allocs/call
//	box-filtered candidate list         4 750                   6 640
//	point location                      1 290                      30
//	point location, level filters         441                      29
//
// (The last row is a later commit's: medians of five alternating runs per
// side, whose parent read 1 369 ns. The filter passes 1.8–1.9 % of misses,
// and TestLevelFilterNoFalseNegatives holds it below 3 %.)
//
// Where this departs from the paper: the open leaf. Algorithm 3 rebuilds the
// buffer tree on every batch insertion — free at the paper's batches of 10 %
// of n, the whole cost at a serving engine's: a 16-point insert that lands
// 4 points in each of 4 shards copied out and re-partitioned four ≈ 512-point
// buffer trees. So in front of the buffer tree sits one more level, the
// TAIL: at most levelLeafSize live points, built by the same newLevel and so
// a one-leaf kdtree arena that every level method already serves. A batch
// that fits — no static tree is thin, tail + batch ≤ levelLeafSize, loose
// points (tail + buffer + batch) < X — rebuilds the tail alone and shares
// the buffer tree and every static tree with the previous version; any
// other batch treats the tail's survivors as it treats the buffer's, and
// the tail slot empties. A loose point is thus rebuilt at most
// levelLeafSize/b times in the tail and X/levelLeafSize = 16 times (8 on
// average) in the buffer tree — not X/b times — before a static tree takes
// it. k-NN visits the tail last; the capacity is the leaf size, not a
// tunable. Measured at the commit that added it (Engine.Update of b fresh
// points, 500 k uniform 2-D points in 4 shards, one processor;
// BenchmarkSmallInsert, medians of five interleaved runs per side on the
// shared 2-vCPU host; TestSmallUpdateBytes holds the bytes):
//
//	µs per update             b = 1      16      64     512   B/update, b = 16
//	buffer tree every time     58.9   280.6   276.8   1 142            135 689
//	open leaf                   4.5    94.7   132.0   1 079             31 950
//
// The package also provides the two baselines the paper evaluates against
// (§6.3): B1, which rebuilds one static tree on every update, and B2, which
// inserts into leaf buffers in place and tombstones deletions.
package bdltree

import (
	"math/bits"

	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/parlay"
)

// SplitRule mirrors kdtree.SplitRule for the two median heuristics.
type SplitRule = kdtree.SplitRule

const (
	// ObjectMedian splits at the median point (balanced trees).
	ObjectMedian = kdtree.ObjectMedian
	// SpatialMedian splits at the box midpoint (cheaper, can skew).
	SpatialMedian = kdtree.SpatialMedian
)

// DefaultBufferSize is the default buffer-tree capacity X (§5: "the sizes
// of all of the trees can be multiplied by a buffer size X, which is a
// constant that is tuned for performance").
const DefaultBufferSize = 1024

// Tree is the parallel batch-dynamic BDL-tree: a buffer tree of capacity X
// and static trees with capacities X·2^i (Figure 7), with an open leaf in
// front of the buffer tree. Invariant, after every completed update: the
// loose points — tail plus buffer — number fewer than X, so Figure 7's
// configurations hold with "buffer" read as "loose" (TreeSizes()[0]).
type Tree struct {
	dim    int
	x      int
	split  SplitRule
	tail   *level   // the open leaf: ≤ levelLeafSize live points, one kd leaf
	buffer *level   // tail + buffer < X live points (slot -1 of the structure)
	trees  []*level // trees[i] holds up to X·2^i points (nil if empty)
	nextID int32    // monotone global id generator
	size   int      // total live points
}

// Options configure the BDL-tree.
type Options struct {
	Split      SplitRule
	BufferSize int // X; default DefaultBufferSize
}

// New returns an empty BDL-tree for dim-dimensional points.
func New(dim int, opts Options) *Tree {
	if opts.BufferSize <= 0 {
		opts.BufferSize = DefaultBufferSize
	}
	return &Tree{dim: dim, x: opts.BufferSize, split: opts.Split}
}

// Size returns the number of live points.
func (t *Tree) Size() int { return t.size }

// NumTrees returns the number of non-empty static trees (excluding the
// buffer tree).
func (t *Tree) NumTrees() int {
	n := 0
	for _, tr := range t.trees {
		if tr.size() > 0 {
			n++
		}
	}
	return n
}

// Insert performs the batch insertion of Algorithm 3: combine the batch
// with the buffer contents, move |P| mod X points into a fresh buffer tree,
// and rebuild the static trees indicated by the bitmask difference
// F_new = F + |P|/X, constructing all new trees in parallel.
func (t *Tree) Insert(batch geom.Points) []int32 {
	if batch.Dim != t.dim {
		panic("bdltree: dimension mismatch")
	}
	b := batch.Len()
	ids := make([]int32, b)
	for i := range ids {
		ids[i] = t.nextID
		t.nextID++
	}
	t.insertWithIDs(batch, ids)
	return ids
}

// InsertWithIDs performs the batch insertion of Insert with caller-assigned
// global ids (one per batch row) instead of tree-local ones. This is the
// entry point for shard trees, whose ids must be unique across a whole
// sharded engine: the caller reserves a global id block and each shard
// inserts its slice of the batch carrying the matching slice of ids. The
// internal id generator is advanced past every supplied id, so a later
// Insert can never collide with a live caller-assigned id. (Deletion
// rebalancing moves points between levels under the ids they have.)
func (t *Tree) InsertWithIDs(batch geom.Points, ids []int32) {
	if batch.Dim != t.dim {
		panic("bdltree: dimension mismatch")
	}
	if batch.Len() != len(ids) {
		panic("bdltree: id count mismatch")
	}
	for _, id := range ids {
		if id >= t.nextID {
			t.nextID = id + 1
		}
	}
	t.insertWithIDs(batch, ids)
}

// levels returns the open leaf, the buffer tree and the static trees,
// smallest first (nil slots included).
func (t *Tree) levels() []*level {
	return append([]*level{t.tail, t.buffer}, t.trees...)
}

// insertWithIDs is the one step that rebuilds levels, shared by every
// update: it inserts the batch (ids already assigned, t.nextID already
// advanced past them) and, in the same rebuild, rebalances after an erase
// — a static tree below half capacity is emptied and its survivors join
// the loose points, under the ids they have. It never writes into a level,
// so it is safe on a shallow clone (persistent.go).
//
// A batch that fits the open leaf — no tree is thin, tail and batch
// together are one kd leaf, and the loose points stay below X — rebuilds
// the tail alone and leaves the buffer tree and every static tree as they
// are. Otherwise the tail's survivors are loose points like the buffer's
// and the tail slot empties.
func (t *Tree) insertWithIDs(batch geom.Points, ids []int32) {
	b := batch.Len()
	t.size += b
	// Bitmask arithmetic: F_new = F + ⌊loose/X⌋, where the loose points are
	// the tail's and the buffer's contents, the batch and the below-half
	// trees' survivors.
	open := t.tail.size() + b
	loose := open + t.buffer.size()
	f, thin := 0, 0
	for i, tr := range t.trees {
		switch n := tr.size(); {
		case n == 0:
		case n < (t.x<<i)/2:
			thin |= 1 << i
			loose += n
		default:
			f |= 1 << i
		}
	}
	if b == 0 && thin == 0 {
		return
	}
	if thin == 0 && open <= levelLeafSize && loose < t.x {
		coords, gids := t.tail.livePoints(make([]float64, 0, open*t.dim), make([]int32, 0, open))
		coords, gids = append(coords, batch.Data...), append(gids, ids...)
		t.tail = newLevel(geom.Points{Data: coords, Dim: t.dim}, gids, t.split)
		return
	}
	fnew := f + loose/t.x
	destroy, create := f&^fnew|thin, fnew&^f
	// One pool receives every point that moves — tail, buffer, batch, then
	// the live points of the thin and the destroyed trees — and each new
	// level takes a disjoint slice of it and partitions that slice in place
	// into its leaf order: a point is copied here and nowhere else.
	total := open + t.buffer.size()
	for i, tr := range t.trees {
		if destroy&(1<<i) != 0 {
			total += tr.size()
		}
	}
	coords := make([]float64, 0, total*t.dim)
	gids := make([]int32, 0, total)
	coords, gids = t.tail.livePoints(coords, gids)
	coords, gids = t.buffer.livePoints(coords, gids)
	coords = append(coords, batch.Data...)
	gids = append(gids, ids...)
	t.tail = nil
	for i, tr := range t.trees {
		if destroy&(1<<i) != 0 {
			coords, gids = tr.livePoints(coords, gids)
			t.trees[i] = nil
		}
	}
	// The first |loose| mod X rows are the new buffer tree (slot -1); the
	// rest fill the created trees from the back, largest first. With full
	// source trees they fit exactly; trees thinned by deletions can leave a
	// remainder, which joins the smallest created tree.
	type job struct{ slot, lo, hi int }
	nb := loose % t.x
	jobs := []job{{-1, 0, nb}}
	offset := total
	for slot := bits.Len(uint(create)) - 1; slot >= 0; slot-- {
		if create&(1<<slot) != 0 {
			lo := max(offset-t.x<<slot, nb)
			jobs = append(jobs, job{slot, lo, offset})
			offset = lo
		}
	}
	if offset > nb {
		jobs[len(jobs)-1].lo = nb
	}
	for len(t.trees) < bits.Len(uint(create)) {
		t.trees = append(t.trees, nil)
	}
	parlay.For(len(jobs), 1, func(j int) {
		jb := jobs[j]
		pts := geom.Points{Data: coords[jb.lo*t.dim : jb.hi*t.dim : jb.hi*t.dim], Dim: t.dim}
		l := newLevel(pts, gids[jb.lo:jb.hi:jb.hi], t.split)
		if jb.slot < 0 {
			t.buffer = l
		} else {
			t.trees[jb.slot] = l
		}
	})
}

// Delete performs the batch deletion of Algorithm 4: erase the batch from
// every tree in parallel, then reinsert the contents of any tree that fell
// below half capacity (insertWithIDs with nothing new to insert). Both
// halves are copy-on-write per level, so Delete, too, is safe on a shallow
// clone.
func (t *Tree) Delete(batch geom.Points) int {
	removed := t.erase(batch)
	t.insertWithIDs(geom.Points{Dim: t.dim}, nil)
	return removed
}

// eraseBlock is how many candidates one erase task looks up in one level:
// small enough that a 512-point batch over a few levels occupies every
// processor, large enough that a task's row buffer is one allocation.
const eraseBlock = 128

// erase tombstones every live row whose coordinates equal a batch point
// and returns how many rows that was. It does not rebalance: levels may be
// left below half capacity until the next insertWithIDs. Each candidate is
// located in each level (kdtree.MatchRows), level × candidate block in
// parallel, every task appending to a row buffer of its own; the buffers
// of a level are then applied to one fresh bitset (level.erase).
func (t *Tree) erase(batch geom.Points) int {
	n := batch.Len()
	if n == 0 {
		return 0
	}
	if batch.Dim != t.dim {
		panic("bdltree: dimension mismatch")
	}
	all := t.levels()
	nb := (n + eraseBlock - 1) / eraseBlock
	hits := make([][]int32, len(all)*nb)
	parlay.For(len(hits), 1, func(j int) {
		l, lo := all[j/nb], j%nb*eraseBlock
		if l == nil {
			return
		}
		hi := min(lo+eraseBlock, n)
		rows := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if q := batch.At(i); l.filter.mayHold(q) {
				rows = l.MatchRows(q, rows)
			}
		}
		hits[j] = rows
	})
	before := t.size
	t.size = 0
	for i, l := range all {
		if l != nil {
			all[i] = l.erase(hits[i*nb : (i+1)*nb])
		}
		t.size += all[i].size()
	}
	t.tail, t.buffer = all[0], all[1]
	copy(t.trees, all[2:])
	return before - t.size
}

// KNN returns, for each query coordinate row, the global ids of its k
// nearest live points. Data-parallel over the queries; each query reuses
// one k-NN buffer across the buffer tree and every static tree
// (Appendix C.4). exclude[i] (optional) is a global id skipped for query i.
// It panics when k < 1.
func (t *Tree) KNN(queries geom.Points, k int, exclude []int32) [][]int32 {
	kdtree.CheckK(k)
	n := queries.Len()
	out := make([][]int32, n)
	parlay.ForBlocked(n, 32, func(lo, hi int) {
		buf := kdtree.NewKNNBuffer(k)
		for i := lo; i < hi; i++ {
			buf.Reset()
			ex := int32(-1)
			if exclude != nil {
				ex = exclude[i]
			}
			t.KNNInto(queries.At(i), ex, buf)
			out[i] = buf.Result(nil)
		}
	})
	return out
}

// RangeSearch returns the global ids of all live points inside the closed
// box, querying the buffer tree and every static tree (in parallel across
// trees for large structures).
func (t *Tree) RangeSearch(box geom.Box) []int32 {
	all := t.levels()
	results := make([][]int32, len(all))
	parlay.For(len(all), 1, func(i int) {
		if all[i] != nil {
			results[i] = all[i].RangeSearch(box)
		}
	})
	var out []int32
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// RangeCount returns the number of live points inside the closed box.
func (t *Tree) RangeCount(box geom.Box) int {
	n := 0
	for _, l := range t.levels() {
		if l != nil {
			n += l.RangeCount(box)
		}
	}
	return n
}

// Points returns the coordinates and global ids of all live points (test /
// verification helper).
func (t *Tree) Points() (geom.Points, []int32) {
	var coords []float64
	var gids []int32
	for _, l := range t.levels() {
		coords, gids = l.livePoints(coords, gids)
	}
	return geom.Points{Data: coords, Dim: t.dim}, gids
}

// TreeSizes returns the live sizes [loose, tree0, tree1, ...] for
// structural tests (Figure 7's configurations); the loose points are the
// open leaf's plus the buffer tree's.
func (t *Tree) TreeSizes() []int {
	out := []int{t.tail.size() + t.buffer.size()}
	for _, l := range t.trees {
		out = append(out, l.size())
	}
	return out
}
