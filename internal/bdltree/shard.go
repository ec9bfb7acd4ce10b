package bdltree

import (
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
)

// Shard-facing API: a Morton-sharded engine runs one BDL-tree per shard and
// needs a few things the batch API does not give it — construction from a
// pre-partitioned slice, insertion under engine-assigned global ids, a
// k-NN entry point that accumulates into a caller-owned buffer so one
// query's candidate set (and its shrinking radius bound) can be threaded
// across several shard trees, and a persistent update that leaves the old
// version queryable.

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
