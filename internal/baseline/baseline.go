// Package baseline holds the structures §6.3 of the ParGeo paper measures
// the BDL-tree against, and nothing else: it is evaluation scaffolding,
// imported by cmd/pargeo-bench and by benchmarks, never by the library's
// production packages.
//
//   - B1 rebuilds one kd-tree on every batch;
//   - B2 builds a kd-tree over its first batch, then appends each later
//     point to the leaf it routes to and tombstones deletions in place;
//   - ZdTree is a simplified Zd-tree, Blelloch and Dobson's Morton-order
//     batch-dynamic structure.
//
// All three, and bdltree.Tree, implement Dynamic, so one driver runs the
// paper's operations over every structure.
package baseline

import (
	"pargeo/internal/bdltree"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/kernel"
	"pargeo/internal/parlay"
)

// Dynamic is the batch-dynamic interface the BDL-tree and the baselines
// share. Each numbers its points from 0 in insertion order, and Delete
// removes every live point equal to a batch point.
type Dynamic interface {
	Insert(batch geom.Points) []int32
	Delete(batch geom.Points) int
	KNN(queries geom.Points, k int, exclude []int32) [][]int32
	Size() int
}

var (
	_ Dynamic = (*bdltree.Tree)(nil)
	_ Dynamic = (*B1)(nil)
	_ Dynamic = (*B2)(nil)
	_ Dynamic = (*ZdTree)(nil)
)

// nextIDs returns the next m ids of a structure whose ids count up from
// *next, and advances *next past them.
func nextIDs(next *int32, m int) []int32 {
	ids := make([]int32, m)
	for i := range ids {
		ids[i] = *next + int32(i)
	}
	*next += int32(m)
	return ids
}

// knn answers every query row with one call of query, data-parallel in
// blocks that share one k-NN buffer. Query i skips the id exclude[i] when
// exclude is not nil. It panics when k < 1.
func knn(queries geom.Points, k int, exclude []int32, query func(q []float64, exclude int32, buf *kdtree.KNNBuffer)) [][]int32 {
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
			query(queries.At(i), ex, buf)
			out[i] = buf.Result(nil)
		}
	})
	return out
}

// boxTree is the node arena B2 and the Zd-tree search. A node's box bounds
// every row below it: B2 widens the boxes on each insert's path, and the
// Zd-tree derives them from its rows. The search orders and prunes
// children by box distance alone; the Zd-tree's Morton-bit splits keep
// no split planes.
type boxTree struct {
	dim    int
	nodes  []kdtree.Node // preorder, root first; Left == 0 marks a leaf
	leaves []leaf        // indexed like nodes; internal nodes' entries are empty
}

// leaf holds a leaf's rows and their ids; a deleted row's id is -1.
type leaf struct {
	coords []float64
	ids    []int32
}

// knnInto adds the tree's neighbours of q, other than exclude, to buf.
func (t *boxTree) knnInto(q []float64, exclude int32, buf *kdtree.KNNBuffer) {
	if len(t.nodes) > 0 {
		t.visit(0, q, exclude, buf)
	}
}

func (t *boxTree) visit(ni int32, q []float64, exclude int32, buf *kdtree.KNNBuffer) {
	nd := &t.nodes[ni]
	if nd.IsLeaf() {
		l := &t.leaves[ni]
		for i, id := range l.ids {
			if id >= 0 && id != exclude {
				buf.Insert(id, geom.SqDist(q, l.coords[i*t.dim:(i+1)*t.dim]))
			}
		}
		return
	}
	l, r := &t.nodes[nd.Left], &t.nodes[nd.Right]
	dl := kernel.MinSqDistToBox(q, l.MinC[:t.dim], l.MaxC[:t.dim])
	dr := kernel.MinSqDistToBox(q, r.MinC[:t.dim], r.MaxC[:t.dim])
	near, far, dfar := nd.Left, nd.Right, dr
	if dr < dl {
		near, far, dfar = nd.Right, nd.Left, dl
	}
	t.visit(near, q, exclude, buf)
	if !buf.Full() || dfar < buf.Bound() {
		t.visit(far, q, exclude, buf)
	}
}
