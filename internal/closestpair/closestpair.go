// Package closestpair implements ParGeo's closest-pair and bichromatic
// closest-pair routines (Module 2).
//
// ClosestPair reduces to an all-nearest-neighbor pass over the kd-tree: the
// closest pair (p, q) are each other's nearest neighbors, so the minimum
// over per-point 1-NN distances is exact; the pass is data-parallel.
//
// BCCP (bichromatic closest pair: nearest red/blue pair) runs the classic
// dual-tree traversal over two kd-trees, pruning node pairs whose box
// distance exceeds the best pair found so far. The same routine, applied to
// WSPD node pairs within one tree, is the engine of the EMST module.
package closestpair

import (
	"math"

	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/parlay"
)

// Result is a closest pair: point indices and their squared distance.
type Result struct {
	A, B   int32
	SqDist float64
}

// BruteForce is the quadratic oracle used for testing and tiny inputs.
func BruteForce(pts geom.Points) Result {
	n := pts.Len()
	best := Result{-1, -1, math.Inf(1)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := pts.SqDist(i, j); d < best.SqDist {
				best = Result{int32(i), int32(j), d}
			}
		}
	}
	return best
}

// ClosestPair returns the closest pair of distinct points, via a batched
// all-1-NN pass over a kd-tree followed by a parallel min-reduction.
func ClosestPair(pts geom.Points) Result {
	n := pts.Len()
	if n < 2 {
		return Result{-1, -1, math.Inf(1)}
	}
	if n <= 64 {
		return BruteForce(pts)
	}
	t := kdtree.Build(pts, kdtree.Options{Split: kdtree.ObjectMedian})
	dists := make([]float64, n)
	nn := t.AllKNN(1, dists)
	type cand struct {
		a, b int32
		d    float64
	}
	best := parlay.Reduce(n, 2048, cand{-1, -1, math.Inf(1)},
		func(i int) cand {
			if nn[i] < 0 {
				return cand{-1, -1, math.Inf(1)}
			}
			return cand{int32(i), nn[i], dists[i]}
		},
		func(a, b cand) cand {
			if b.d < a.d || (b.d == a.d && b.a >= 0 && (a.a < 0 || b.a < a.a)) {
				return b
			}
			return a
		})
	a, b := best.a, best.b
	if a > b {
		a, b = b, a
	}
	return Result{a, b, best.d}
}

// BCCP returns the bichromatic closest pair between the points of two
// kd-trees (A-index, B-index, squared distance) via dual-tree traversal.
func BCCP(ta, tb *kdtree.Tree) Result {
	best := Result{-1, -1, math.Inf(1)}
	if ta.Root() == nil || tb.Root() == nil {
		return best
	}
	bccpNodes(ta, tb, ta.Root(), tb.Root(), &best)
	return best
}

// BCCPNodes computes the closest pair between the point sets of two nodes
// (possibly of the same tree), seeded with an existing best (pass
// SqDist=+inf to start fresh). Used per-WSPD-pair by the EMST.
func BCCPNodes(ta, tb *kdtree.Tree, a, b *kdtree.Node, seed Result) Result {
	best := seed
	bccpNodes(ta, tb, a, b, &best)
	return best
}

func bccpNodes(ta, tb *kdtree.Tree, a, b *kdtree.Node, best *Result) {
	if kdtree.NodeSqDist(a, b, ta.Pts.Dim) >= best.SqDist {
		return
	}
	if a.IsLeaf() && b.IsLeaf() {
		// A leaf's points are its rows [Lo, Hi); the result names labels.
		for i := a.Lo; i < a.Hi; i++ {
			pi := ta.Pts.At(int(i))
			for j := b.Lo; j < b.Hi; j++ {
				if d := geom.SqDist(pi, tb.Pts.At(int(j))); d < best.SqDist {
					*best = Result{ta.Idx[i], tb.Idx[j], d}
				}
			}
		}
		return
	}
	// Descend into the larger-diameter node; order children by distance so
	// the nearer pair is explored first (better pruning).
	if b.IsLeaf() || (!a.IsLeaf() && kdtree.NodeSqDiameter(a, ta.Pts.Dim) > kdtree.NodeSqDiameter(b, tb.Pts.Dim)) {
		al, ar := ta.Left(a), ta.Right(a)
		dl := kdtree.NodeSqDist(al, b, ta.Pts.Dim)
		dr := kdtree.NodeSqDist(ar, b, ta.Pts.Dim)
		if dl <= dr {
			bccpNodes(ta, tb, al, b, best)
			bccpNodes(ta, tb, ar, b, best)
		} else {
			bccpNodes(ta, tb, ar, b, best)
			bccpNodes(ta, tb, al, b, best)
		}
	} else {
		bl, br := tb.Left(b), tb.Right(b)
		dl := kdtree.NodeSqDist(a, bl, ta.Pts.Dim)
		dr := kdtree.NodeSqDist(a, br, ta.Pts.Dim)
		if dl <= dr {
			bccpNodes(ta, tb, a, bl, best)
			bccpNodes(ta, tb, a, br, best)
		} else {
			bccpNodes(ta, tb, a, br, best)
			bccpNodes(ta, tb, a, bl, best)
		}
	}
}

// Bichromatic returns the closest red/blue pair given two point buffers of
// equal dimension; indices refer to the respective buffers.
func Bichromatic(red, blue geom.Points) Result {
	if red.Len() == 0 || blue.Len() == 0 {
		return Result{-1, -1, math.Inf(1)}
	}
	var ta, tb *kdtree.Tree
	parlay.Do(
		func() { ta = kdtree.Build(red, kdtree.Options{}) },
		func() { tb = kdtree.Build(blue, kdtree.Options{}) },
	)
	return BCCP(ta, tb)
}
