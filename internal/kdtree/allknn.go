package kdtree

import (
	"cmp"
	"math"

	"pargeo/internal/parlay"
)

// allknnGrain is the subtree size below which the batch pass runs
// sequentially on one worker, with one leaf group's scratch and one
// KNNBuffer answering every leaf of the subtree in turn.
const allknnGrain = 2048

// leafGroup is one worker's scratch for answering a leaf's rows together.
// Row i owns the k slots ids/dists[i*k : i*k+k]: its nearest candidates
// so far, sorted by increasing distance and padded with (-1, +Inf), so
// dists[i*k+k-1] is its k-th distance or +Inf while it holds fewer. ord
// orders the rows along the leaf's widest dimension, and sibs lists the
// ancestors whose other child survived the group bound. The scratch is
// O(LeafSize·k).
type leafGroup struct {
	k     int
	ids   []int32
	dists []float64
	ord   []int32
	sibs  []int32
	buf   *KNNBuffer
}

// pairs fills the slots of the leaf nd from the leaf itself. Each
// unordered pair of rows is measured at most once and offered to both;
// an offer is taken only when its distance beats the row's k-th.
//
// Pairs go in order of their gap in ord, so each row meets its nearest
// candidates first and its k-th shrinks early. The squared coordinate gap
// dx² lower-bounds a pair's distance, so a pair whose dx² reaches both
// rows' k-th could be taken by neither and is not measured. Gaps only
// widen with the gap in ord, and k-ths only shrink, so once a whole gap in
// ord is skipped every later one would be. (cmp.Less sorts NaN first, and
// a NaN gap is never skipped, so no gap is skipped whole while one lasts.)
func (g *leafGroup) pairs(t *Tree, nd *Node) {
	k, dim, lo, m := g.k, t.Pts.Dim, int(nd.Lo), nd.Size()
	ids, ds := g.ids[:m*k], g.dists[:m*k]
	for i := range ds {
		ids[i], ds[i] = -1, inf
	}
	rows, ord, wd := t.Pts.Data[lo*dim:(lo+m)*dim], g.ord[:m], widestDim(nd, dim)
	for i := range m {
		j := i
		for ; j > 0 && cmp.Less(rows[i*dim+wd], rows[int(ord[j-1])*dim+wd]); j-- {
			ord[j] = ord[j-1]
		}
		ord[j] = int32(i)
	}
	for gap := 1; gap < m; gap++ {
		measured := false
		for a := 0; a+gap < m; a++ {
			i, j := int(ord[a]), int(ord[a+gap])
			p, o := rows[i*dim:(i+1)*dim], rows[j*dim:(j+1)*dim]
			dx := o[wd] - p[wd]
			if dx *= dx; dx >= ds[i*k+k-1] && dx >= ds[j*k+k-1] {
				continue
			}
			measured = true
			d := 0.0
			for c, x := range p {
				x -= o[c]
				d += x * x
			}
			if d < ds[i*k+k-1] && !t.IsDead(int32(lo+j)) {
				insertSorted(ids[i*k:i*k+k], ds[i*k:i*k+k], t.Idx[lo+j], d)
			}
			if d < ds[j*k+k-1] && !t.IsDead(int32(lo+i)) {
				insertSorted(ids[j*k:j*k+k], ds[j*k:j*k+k], t.Idx[lo+i], d)
			}
		}
		if !measured {
			break
		}
	}
}

// insertSorted puts id at squared distance d, nearer than the last of the
// sorted slots, into its place, dropping the last.
func insertSorted(ids []int32, ds []float64, id int32, d float64) {
	c := len(ds) - 1
	for ; c > 0 && ds[c-1] > d; c-- {
		ids[c], ds[c] = ids[c-1], ds[c-1]
	}
	ids[c], ds[c] = id, d
}

// allknnPar fans the batch pass out over the tree: subtrees larger than
// allknnGrain fork through the scheduler, smaller ones run sequentially on
// one leaf group. Each call owns path's backing array past its length, so
// the left side extends it in place and the right side gets a copy.
func (t *Tree) allknnPar(ni int32, path []int32, k int, emit func(int32, []int32, []float64)) {
	nd := &t.Nodes[ni]
	if nd.Left == 0 || nd.Size() <= allknnGrain {
		m := min(t.opts.LeafSize, nd.Size()) // no leaf holds more rows
		t.allknnWalk(ni, path, &leafGroup{k: k, ids: make([]int32, m*k), dists: make([]float64, m*k),
			ord: make([]int32, m), buf: NewKNNBuffer(k)}, emit)
		return
	}
	path = append(path, ni)
	rp := append(make([]int32, 0, len(path)+16), path...)
	parlay.Do(
		func() { t.allknnPar(nd.Left, path, k, emit) },
		func() { t.allknnPar(nd.Right, rp, k, emit) },
	)
}

// allknnWalk answers the rows of subtree ni leaf by leaf. A leaf's m rows
// are answered as a group, the leaf-level form of dual-tree all-nearest-
// neighbours (Gray & Moore, NIPS 2000):
//
//  1. Each unordered pair of the leaf's rows is measured once, in float64,
//     and offered to both rows' slots. Dead rows are queried but never
//     offered.
//  2. The group bound G is the largest k-th distance among the rows (+Inf
//     while any row holds fewer than k). The ancestor path is walked once:
//     a sibling whose box lies at least G from the leaf's box cannot hold a
//     neighbour of any row and is skipped for all of them.
//  3. Each row loads its slots into the worker's KNNBuffer, with its exact
//     k-th as the bound, tests the surviving siblings against it nearest
//     first, and descends through knnRec into those it cannot skip; the
//     buffer's result becomes its slots. emit receives the row's label and
//     its k slots.
func (t *Tree) allknnWalk(ni int32, path []int32, g *leafGroup, emit func(int32, []int32, []float64)) {
	nd := &t.Nodes[ni]
	if nd.Left != 0 {
		path = append(path, ni)
		t.allknnWalk(nd.Left, path, g, emit)
		t.allknnWalk(nd.Right, path, g, emit)
		return
	}
	k, dim, lo, m := g.k, t.Pts.Dim, int(nd.Lo), nd.Size()
	g.pairs(t, nd)
	bound := 0.0
	for i := 0; i < m; i++ {
		bound = max(bound, g.dists[i*k+k-1])
	}
	// The leaf lies in an ancestor's left subtree exactly when it precedes
	// the right child in preorder.
	g.sibs = g.sibs[:0]
	for j := len(path) - 1; j >= 0; j-- {
		anc := &t.Nodes[path[j]]
		sib := anc.Left
		if ni < anc.Right {
			sib = anc.Right
		}
		if NodeSqDist(nd, &t.Nodes[sib], dim) < bound {
			g.sibs = append(g.sibs, path[j])
		}
	}
	buf := g.buf
	for i := 0; i < m; i++ {
		pid, q := t.Idx[lo+i], t.Pts.At(lo+i)
		ids, ds := g.ids[i*k:i*k+k], g.dists[i*k:i*k+k]
		if len(g.sibs) > 0 {
			buf.load(ids, ds)
			buf.PrepareF32(q, t.maxAbs, t.f32ok)
			for _, a := range g.sibs {
				anc := &t.Nodes[a]
				// Signed distance from q to the ancestor's split plane, oriented
				// toward the sibling. Both split rules partition so that the
				// left child's coords are ≤ SplitVal ≤ the right child's, so a
				// positive pd lower-bounds the distance to the sibling's box —
				// a one-multiply prune that usually saves the per-axis box test.
				// (q can sit past the plane among duplicates; then pd ≤ 0 and
				// only the exact box test decides.)
				sib, pd := anc.Left, q[anc.SplitDim]-anc.SplitVal
				if ni < anc.Right {
					sib, pd = anc.Right, -pd
				}
				bd := buf.Bound()
				if math.IsInf(bd, 1) ||
					((pd <= 0 || pd*pd < bd) && boxSqDist(&t.Nodes[sib], q, dim) < bd) {
					t.knnRec(sib, q, pid, buf)
				}
			}
			buf.ResultInto(ids, ds)
		}
		emit(pid, ids, ds)
	}
}

// allknn runs the batch pass over the whole tree. Its output is indexed
// by label, so it panics unless every label lies in [0, Pts.Len()); like
// CheckK it checks before the pass forks, where the panic reaches the
// caller — a worker's index panic would end the process.
func (t *Tree) allknn(k int, emit func(int32, []int32, []float64)) {
	n := int32(len(t.Idx))
	for _, lab := range t.Idx {
		if lab < 0 || lab >= n {
			panic("kdtree: AllKNN requires labels 0..n-1")
		}
	}
	if n > 0 {
		t.allknnPar(0, make([]int32, 0, 16), k, emit)
	}
}

// AllKNN computes, for every point stored in the tree, its k nearest
// neighbors among the tree's points (excluding the point itself), in one
// data-parallel batch pass. Results are flat and row-major by point index —
// the label, so the tree must label its rows 0..n−1, as Build does (it
// panics otherwise): the neighbors of point p occupy ids[p*k : (p+1)*k],
// sorted by increasing distance and padded with -1 when fewer than k
// neighbors exist. If sqDists is non-nil it must have length Pts.Len()*k
// and receives the matching squared distances (+Inf padding).
//
// Each leaf's rows are answered as one group (see allknnWalk): the pairs
// inside the leaf are measured once for both of their rows, and the
// ancestor path is walked once per leaf, so a row descends only into the
// siblings the whole leaf could not rule out. Each worker reuses one
// KNNBuffer and one O(LeafSize·k) group scratch across an entire subtree of
// leaves; the batch allocates nothing per query beyond the result rows.
//
// This is the batch entry point the closest-pair reduction, the clustering
// pipeline's core distances, and the k-NN graph generator share.
func (t *Tree) AllKNN(k int, sqDists []float64) []int32 {
	if k <= 0 {
		panic("kdtree: AllKNN requires k >= 1")
	}
	n := t.Pts.Len()
	if sqDists != nil && len(sqDists) != n*k {
		panic("kdtree: AllKNN sqDists length must be Pts.Len()*k")
	}
	ids := make([]int32, n*k)
	t.allknn(k, func(pid int32, nbrs []int32, dists []float64) {
		copy(ids[int(pid)*k:], nbrs)
		if sqDists != nil {
			copy(sqDists[int(pid)*k:], dists)
		}
	})
	return ids
}

// AllKthSqDist computes, for every point stored in the tree, the squared
// distance to its k-th nearest neighbor (excluding itself) — the quantity
// DBSCAN/HDBSCAN core distances are built from. Entry p is +Inf when point
// p (a label, as in AllKNN, which must lie in 0..n−1) has fewer than k
// neighbors. It runs AllKNN's leaf-group pass but materializes no neighbor
// matrix: output is O(n) however large k is.
func (t *Tree) AllKthSqDist(k int) []float64 {
	if k <= 0 {
		panic("kdtree: AllKthSqDist requires k >= 1")
	}
	out := make([]float64, t.Pts.Len())
	t.allknn(k, func(pid int32, _ []int32, dists []float64) {
		out[pid] = dists[k-1]
	})
	return out
}
