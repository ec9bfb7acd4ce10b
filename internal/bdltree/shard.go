package bdltree

import (
	"sort"

	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/morton"
	"pargeo/internal/parlay"
)

// Shard-facing API: a Morton-sharded engine runs one BDL-tree per shard and
// needs a few things the batch API does not give it — construction from a
// pre-partitioned slice, insertion under engine-assigned global ids, a
// k-NN entry point that accumulates into a caller-owned buffer so one
// query's candidate set (and its shrinking radius bound) can be threaded
// across several shard trees, and the migration primitives (ExtractRange,
// Merge) an online repartitioner uses to split a hot shard's tree or fuse
// two cold neighbors.

// NewFromSorted builds a tree directly from a pre-sorted contiguous slice
// of points carrying their global ids — the per-shard construction step of
// a sharded bulk load, where the caller has Morton-sorted the input and cut
// it into per-shard slices. (Storage order inside the built levels is kd
// leaf order whatever the input order; see kdtree.BuildRows.)
func NewFromSorted(dim int, opts Options, pts geom.Points, ids []int32) *Tree {
	t := New(dim, opts)
	if pts.Len() > 0 {
		t.InsertWithIDs(pts, ids)
	}
	return t
}

// PersistentUpdate is one commit group's share of change to a shard tree,
// leaving the receiver untouched and queryable: the new tree lacks every
// live point matching a batch of dels — erased batch by batch in order, so
// removed[i] counts what dels[i] itself removed — and holds ins under the
// caller-assigned global ids (see InsertWithIDs for the id contract; the
// deletions do not see the insertions). The erases do not rebalance: the
// one insertWithIDs that follows rebuilds the below-half levels together
// with whatever the insertion rebuilds anyway, so a commit pays for one
// rebuild, not one per deletion plus one.
func (t *Tree) PersistentUpdate(dels []geom.Points, ins geom.Points, ids []int32) (*Tree, []int) {
	nt := t.shallowClone()
	removed := make([]int, len(dels))
	for i, del := range dels {
		removed[i] = nt.erase(del)
	}
	nt.InsertWithIDs(ins, ids)
	return nt, removed
}

// EachLive hands yield every live point exactly once, as runs of rows that
// are slices of the levels' own arrays — coords holds len(ids) rows, the
// callee must not write to or retain either — in level order, kd leaf order
// within a level. Nothing is copied or allocated: this is how a checkpoint
// reads a shard (engine.Checkpoint) without materialising it.
func (t *Tree) EachLive(yield func(coords []float64, ids []int32)) {
	for _, l := range t.trees {
		l.eachLive(yield)
	}
	t.buffer.eachLive(yield)
	t.tail.eachLive(yield)
}

// ExtractRange returns the tree's live points whose Morton code under the
// quantization box world lies in the inclusive code interval [lo, hi], in
// ascending code order, along with those codes and the points' global ids.
// This is the extraction half of a shard migration: a repartitioner pulls a
// shard's live points out code-sorted, cuts the sorted run at the new
// boundary, and feeds each piece straight back into NewFromSorted. An empty
// interval (lo > hi) yields nothing. The returned buffers are fresh and do
// not alias the tree.
func (t *Tree) ExtractRange(world geom.Box, lo, hi uint64) ([]uint64, geom.Points, []int32) {
	pts, ids := t.Points()
	n := pts.Len()
	if n == 0 || lo > hi {
		return nil, geom.Points{Dim: t.dim}, nil
	}
	codes := make([]uint64, n)
	parlay.For(n, 512, func(i int) { codes[i] = morton.Encode(pts.At(i), world) })
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	parlay.SortPairs(codes, idx)
	from := sort.Search(n, func(i int) bool { return codes[i] >= lo })
	to := sort.Search(n, func(i int) bool { return codes[i] > hi })
	if from >= to {
		return nil, geom.Points{Dim: t.dim}, nil
	}
	sub := idx[from:to]
	outIDs := make([]int32, len(sub))
	for i, j := range sub {
		outIDs[i] = ids[j]
	}
	return codes[from:to], pts.Gather(sub), outIDs
}

// Merge builds one fresh tree (with a's options) holding every live point
// of a and b, laid out in ascending Morton order under world — the fusion
// half of a shard migration, used when two cold adjacent Morton-range
// shards collapse into one. The inputs are read-only and stay queryable;
// their code runs are merged (not concatenated), so the result is sorted
// even if the two trees' ranges interleave.
func Merge(world geom.Box, a, b *Tree) *Tree {
	all := ^uint64(0)
	ca, pa, ia := a.ExtractRange(world, 0, all)
	cb, pb, ib := b.ExtractRange(world, 0, all)
	dim := a.dim
	n := len(ia) + len(ib)
	pts := geom.Points{Data: make([]float64, 0, n*dim), Dim: dim}
	ids := make([]int32, 0, n)
	i, j := 0, 0
	for i < len(ia) || j < len(ib) {
		if j >= len(ib) || (i < len(ia) && ca[i] <= cb[j]) {
			pts.Data = append(pts.Data, pa.At(i)...)
			ids = append(ids, ia[i])
			i++
		} else {
			pts.Data = append(pts.Data, pb.At(j)...)
			ids = append(ids, ib[j])
			j++
		}
	}
	return NewFromSorted(dim, Options{Split: a.split, BufferSize: a.x}, pts, ids)
}

// KNNInto adds the tree's candidates for query q into buf, which the caller
// owns and may have pre-loaded with candidates from other trees. The
// buffer's current k-th-distance bound prunes this tree's traversal, so
// visiting a sequence of shard trees through one buffer gives each
// successive tree a tighter radius — the shared shrinking-radius walk of a
// sharded k-NN. exclude (or -1) is a global id to skip.
//
// The ladder is walked largest level first, then the buffer tree, the open
// leaf last. Every level is an unbiased sample of the tree's points, so all
// root boxes coincide and no geometric order can separate them; but the
// largest level holds half the points or more and almost always the true
// neighbours, so after it the bound is tight and each smaller level is a
// descent plus a leaf.
// (Slot order is size order: a static tree below half capacity is
// reinserted by Delete, so trees[i] outweighs trees[i-1].)
func (t *Tree) KNNInto(q []float64, exclude int32, buf *kdtree.KNNBuffer) {
	for i := len(t.trees) - 1; i >= 0; i-- {
		t.trees[i].knnInto(q, exclude, buf)
	}
	t.buffer.knnInto(q, exclude, buf)
	t.tail.knnInto(q, exclude, buf)
}
