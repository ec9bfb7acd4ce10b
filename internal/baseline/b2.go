package baseline

import (
	"slices"

	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
)

// B2 is the second baseline of §6.3: the first batch builds a kd-tree, and
// later points go straight into the existing structure (a buffer at each
// leaf) without recomputing any split, while deletions tombstone points in
// place. Updates are nearly free; the tree can grow arbitrarily unbalanced
// (Fig. 14, Appendix D).
type B2 struct {
	boxTree
	split  kdtree.SplitRule
	nextID int32
	size   int
}

// b2LeafSize is the leaf size of B2's first build; leaves grow past it as
// points are inserted.
const b2LeafSize = 16

// NewB2 returns an empty insert-in-place baseline.
func NewB2(dim int, split kdtree.SplitRule) *B2 {
	return &B2{boxTree: boxTree{dim: dim}, split: split}
}

// Size returns the number of live points.
func (b *B2) Size() int { return b.size }

// Insert appends each point to the leaf it routes to, widening the boxes
// on its path. The first non-empty batch builds the tree instead.
func (b *B2) Insert(batch geom.Points) []int32 {
	ids := nextIDs(&b.nextID, batch.Len())
	b.size += len(ids)
	if len(b.nodes) == 0 && len(ids) > 0 {
		b.build(batch, ids)
		return ids
	}
	for i, id := range ids {
		b.insertOne(batch.At(i), id)
	}
	return ids
}

// build makes the kd-tree over the first batch. Each leaf's buffer starts
// as the leaf's rows of the tree, clipped so that its first append copies
// them out rather than overwrite the next leaf's.
func (b *B2) build(batch geom.Points, ids []int32) {
	rows := geom.Points{Data: slices.Clone(batch.Data), Dim: b.dim}
	t := kdtree.BuildRows(rows, slices.Clone(ids), kdtree.Options{Split: b.split, LeafSize: b2LeafSize})
	b.nodes = t.Nodes
	b.leaves = make([]leaf, len(t.Nodes))
	for i, nd := range t.Nodes {
		if nd.IsLeaf() {
			lo, hi := int(nd.Lo), int(nd.Hi)
			b.leaves[i] = leaf{slices.Clip(t.Pts.Data[lo*b.dim : hi*b.dim]), slices.Clip(t.Idx[lo:hi])}
		}
	}
}

func (b *B2) insertOne(p []float64, id int32) {
	ni := int32(0)
	for {
		nd := &b.nodes[ni]
		for c, v := range p {
			nd.MinC[c] = min(nd.MinC[c], v)
			nd.MaxC[c] = max(nd.MaxC[c], v)
		}
		if nd.IsLeaf() {
			l := &b.leaves[ni]
			l.coords = append(l.coords, p...)
			l.ids = append(l.ids, id)
			return
		}
		if p[nd.SplitDim] < nd.SplitVal {
			ni = nd.Left
		} else {
			ni = nd.Right
		}
	}
}

// Delete tombstones every live point equal to a batch point (§6.3: "it
// does almost no work other than tombstoning the deleted points").
func (b *B2) Delete(batch geom.Points) int {
	removed := 0
	for i := 0; i < batch.Len() && len(b.nodes) > 0; i++ {
		removed += b.deleteOne(0, batch.At(i))
	}
	b.size -= removed
	return removed
}

// deleteOne tombstones the points equal to p below node ni. Points equal
// to a split value sit on both sides of it (the build leaves ties on
// either side), so every child whose box holds p is searched.
func (b *B2) deleteOne(ni int32, p []float64) int {
	nd := &b.nodes[ni]
	for c, v := range p {
		if v < nd.MinC[c] || v > nd.MaxC[c] {
			return 0
		}
	}
	if !nd.IsLeaf() {
		return b.deleteOne(nd.Left, p) + b.deleteOne(nd.Right, p)
	}
	removed := 0
	l := &b.leaves[ni]
	for i, id := range l.ids {
		if id >= 0 && slices.Equal(l.coords[i*b.dim:(i+1)*b.dim], p) {
			l.ids[i] = -1
			removed++
		}
	}
	return removed
}

// KNN answers the queries data-parallel on the in-place structure.
func (b *B2) KNN(queries geom.Points, k int, exclude []int32) [][]int32 {
	return knn(queries, k, exclude, b.knnInto)
}
