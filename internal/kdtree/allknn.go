package kdtree

import (
	"math"

	"pargeo/internal/geom"
	"pargeo/internal/parlay"
)

// allknnGrain is the subtree size below which the batch pass runs
// sequentially on one worker (one pooled buffer, one seed chain).
const allknnGrain = 2048

// seedFromPrev primes buf for a query at point q using the previous query
// in the batch: if the previous point prev had exact k-th squared distance
// prevKth, the triangle inequality bounds this query's k-th distance by
// √prevKth + |prev−q| (prev itself plus k-th-ball(prev) minus q is k
// points ≠ q within that radius). Inflated to a strict bound as SeedBound
// requires; zero radius (exact duplicates) cannot be made strict and is
// skipped. Queries run in leaf (Idx) order, so prev is spatially adjacent
// and the seed is tight — pruning and the f32 refine threshold are armed
// from the first leaf, skipping the eager phase entirely.
func seedFromPrev(buf *KNNBuffer, prev []float64, prevKth float64, q []float64) {
	if math.IsInf(prevKth, 1) {
		return
	}
	r := math.Sqrt(prevKth) + math.Sqrt(geom.SqDist(prev, q))
	if r > 0 {
		r *= 1 + 0x1p-30
		buf.SeedBound(r * r)
	}
}

// allknnState threads one worker's query chain through a sequential run of
// leaves: the reused buffer plus the previous query point and its exact
// k-th distance (the seed for the next query).
type allknnState struct {
	buf     *KNNBuffer
	prev    []float64
	prevKth float64
}

// allknnPar fans the batch pass out over the tree: subtrees larger than
// allknnGrain fork through the scheduler (each side gets its own copy of
// the ancestor path), smaller ones run sequentially with one pooled
// buffer. emit consumes one finished query's buffer and returns the exact
// k-th squared distance (+Inf when under k), which seeds the next query.
func (t *Tree) allknnPar(ni int32, path []int32, pool *BufferPool, emit func(int32, *KNNBuffer) float64) {
	nd := &t.Nodes[ni]
	if nd.Left == 0 || nd.Size() <= allknnGrain {
		st := allknnState{buf: pool.Get(), prevKth: inf}
		t.allknnWalk(ni, path, &st, emit)
		pool.Put(st.buf)
		return
	}
	lp := make([]int32, len(path)+1, len(path)+16)
	copy(lp, path)
	lp[len(path)] = ni
	rp := make([]int32, len(path)+1, len(path)+16)
	copy(rp, path)
	rp[len(path)] = ni
	parlay.Do(
		func() { t.allknnPar(nd.Left, lp, pool, emit) },
		func() { t.allknnPar(nd.Right, rp, pool, emit) },
	)
}

// allknnWalk visits the leaves of subtree ni in order and answers each
// leaf's self-queries bottom-up: the query point is already in this leaf,
// so the leaf is scanned first (with the seed from the previous query in
// the chain), and the rest of the tree is covered by walking the ancestor
// path upward, descending into each ancestor's other child only when its
// box beats the current bound. That replaces the per-query root descent —
// by the time siblings are tested, the bound is already tight, so almost
// all of them prune on the one box test.
func (t *Tree) allknnWalk(ni int32, path []int32, st *allknnState, emit func(int32, *KNNBuffer) float64) {
	nd := &t.Nodes[ni]
	if nd.Left != 0 {
		path = append(path, ni)
		t.allknnWalk(nd.Left, path, st, emit)
		t.allknnWalk(nd.Right, path, st, emit)
		return
	}
	dim := t.Pts.Dim
	buf := st.buf
	for i := nd.Lo; i < nd.Hi; i++ {
		pid := t.Idx[i]
		q := t.Pts.At(int(pid))
		buf.Reset()
		if st.prev != nil {
			seedFromPrev(buf, st.prev, st.prevKth, q)
		}
		buf.PrepareF32(q, t.maxAbs, t.f32ok)
		t.scanLeaf(nd, q, pid, buf)
		child := ni
		for j := len(path) - 1; j >= 0; j-- {
			anc := &t.Nodes[path[j]]
			// Signed distance from q to the ancestor's split plane, oriented
			// toward the sibling. Both split rules partition so that the
			// left child's coords are ≤ SplitVal ≤ the right child's, so a
			// positive pd lower-bounds the distance to the sibling's box —
			// a one-multiply prune that usually saves the per-axis box test.
			// (q can sit past the plane among duplicates; then pd ≤ 0 and
			// only the exact box test decides.)
			sib := anc.Left
			pd := q[anc.SplitDim] - anc.SplitVal
			if sib == child {
				sib = anc.Right
				pd = -pd
			}
			bd := buf.Bound()
			if math.IsInf(bd, 1) ||
				((pd <= 0 || pd*pd < bd) && boxSqDist(&t.Nodes[sib], q, dim) < bd) {
				t.knnRec(sib, q, pid, buf)
			}
			child = path[j]
		}
		st.prev, st.prevKth = q, emit(pid, buf)
	}
}

// AllKNN computes, for every point stored in the tree, its k nearest
// neighbors among the tree's points (excluding the point itself), in one
// data-parallel batch pass. Results are flat and row-major by point index:
// the neighbors of point p occupy ids[p*k : (p+1)*k], sorted by increasing
// distance and padded with -1 when fewer than k neighbors exist (and, for
// trees built over an index subset, for points absent from the tree). If
// sqDists is non-nil it must have length Pts.Len()*k and receives the
// matching squared distances (+Inf padding).
//
// Queries run in leaf (Idx) order as a bottom-up co-traversal: each query
// starts at its own leaf, seeds its pruning bound from the previous
// (spatially adjacent) query via the triangle inequality, and covers the
// rest of the tree by testing ancestor siblings against that bound — see
// allknnWalk. Workers draw KNNBuffers from a pool and reuse one across an
// entire subtree of queries; the batch allocates nothing per query beyond
// the result rows.
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
	if len(t.Idx) != n {
		// Subset tree: rows of points outside the tree stay padded.
		parlay.For(n*k, 0, func(i int) {
			ids[i] = -1
			if sqDists != nil {
				sqDists[i] = inf
			}
		})
	}
	if len(t.Idx) == 0 {
		return ids
	}
	pool := NewBufferPool(k)
	t.allknnPar(0, make([]int32, 0, 16), pool, func(pid int32, buf *KNNBuffer) float64 {
		row := ids[int(pid)*k : (int(pid)+1)*k]
		var drow []float64
		if sqDists != nil {
			drow = sqDists[int(pid)*k : (int(pid)+1)*k]
		}
		m := buf.ResultInto(row, drow)
		for j := m; j < k; j++ {
			row[j] = -1
			if drow != nil {
				drow[j] = inf
			}
		}
		if m < k {
			return inf
		}
		// ResultInto sorted the kept prefix, so the exact k-th distance for
		// the next query's seed is just its last entry.
		return buf.dists[k-1]
	})
	return ids
}

// AllKthSqDist computes, for every point stored in the tree, the squared
// distance to its k-th nearest neighbor (excluding itself) — the batch form
// of KNNBuffer.KthDist, and the quantity DBSCAN/HDBSCAN core distances are
// built from. Entry p is +Inf when point p has fewer than k neighbors or is
// absent from a subset tree. Unlike AllKNN it materializes no neighbor
// matrix: output is O(n) however large k is. Batched exactly like AllKNN
// (leaf-ordered bottom-up co-traversal with seeded bounds).
func (t *Tree) AllKthSqDist(k int) []float64 {
	if k <= 0 {
		panic("kdtree: AllKthSqDist requires k >= 1")
	}
	n := t.Pts.Len()
	out := make([]float64, n)
	if len(t.Idx) != n {
		parlay.For(n, 0, func(i int) { out[i] = inf })
	}
	if len(t.Idx) == 0 {
		return out
	}
	pool := NewBufferPool(k)
	t.allknnPar(0, make([]int32, 0, 16), pool, func(pid int32, buf *KNNBuffer) float64 {
		d := buf.KthDist()
		out[pid] = d
		return d
	})
	return out
}
