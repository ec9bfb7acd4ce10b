package baseline

import (
	"slices"

	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/parlay"
)

// B1 is the first baseline of §6.3: one kd-tree rebuilt from scratch on
// every batch insertion or deletion. Queries always see a balanced tree;
// every update pays a full build.
type B1 struct {
	t      *kdtree.Tree
	opts   kdtree.Options
	nextID int32
}

// NewB1 returns an empty rebuild-always baseline.
func NewB1(dim int, split kdtree.SplitRule) *B1 {
	opts := kdtree.Options{Split: split, LeafSize: 64}
	return &B1{t: kdtree.BuildRows(geom.Points{Dim: dim}, nil, opts), opts: opts}
}

// Size returns the number of live points.
func (b *B1) Size() int { return len(b.t.Idx) }

// Insert rebuilds the tree over its rows and the batch.
func (b *B1) Insert(batch geom.Points) []int32 {
	ids := nextIDs(&b.nextID, batch.Len())
	rows := geom.Points{Data: slices.Concat(b.t.Pts.Data, batch.Data), Dim: b.t.Pts.Dim}
	b.t = kdtree.BuildRows(rows, slices.Concat(b.t.Idx, ids), b.opts)
	return ids
}

// Delete removes every row equal to a batch point, found by point location
// in a kd-tree over the batch, and rebuilds over the rest.
func (b *B1) Delete(batch geom.Points) int {
	victims := kdtree.Build(batch, kdtree.Options{})
	n, dim := b.Size(), b.t.Pts.Dim
	keep := parlay.PackIndex(n, func(r int) bool {
		var hit [1]int32
		return len(victims.MatchRows(b.t.Pts.At(r), hit[:0])) == 0
	})
	if len(keep) == n {
		return 0
	}
	rows := make([]float64, len(keep)*dim)
	ids := make([]int32, len(keep))
	parlay.For(len(keep), 0, func(i int) {
		copy(rows[i*dim:], b.t.Pts.At(int(keep[i])))
		ids[i] = b.t.Idx[keep[i]]
	})
	b.t = kdtree.BuildRows(geom.Points{Data: rows, Dim: dim}, ids, b.opts)
	return n - len(keep)
}

// KNN answers the queries data-parallel on the one balanced tree.
func (b *B1) KNN(queries geom.Points, k int, exclude []int32) [][]int32 {
	return knn(queries, k, exclude, b.t.KNNInto)
}
