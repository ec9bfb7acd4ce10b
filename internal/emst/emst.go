// Package emst computes the Euclidean minimum spanning tree via the
// well-separated pair decomposition (ParGeo Module 3, after Callahan &
// Kosaraju and the ParGeo/Wang-et-al. EMST pipeline):
//
//  1. build a kd-tree, compute a WSPD with separation 2;
//  2. for each well-separated pair, compute the exact bichromatic closest
//     pair between the two node point sets (dual-tree search, in parallel
//     across pairs) — with s >= 2 the EMST is a subset of these candidate
//     edges, plus all intra-leaf pairs;
//  3. run Kruskal (parallel sort + sequential union-find) on the
//     candidates.
//
// The result is the exact EMST in any (low) dimension.
package emst

import (
	"math"

	"pargeo/internal/closestpair"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/parlay"
	"pargeo/internal/unionfind"
	"pargeo/internal/wspd"
)

// Edge is a weighted tree edge between point indices U and V.
type Edge struct {
	U, V   int32
	SqDist float64
}

// Compute returns the EMST edges (n-1 of them for n >= 1 distinct points).
//
// The tree is built with leaf size 1: the MST-subset-of-BCCP-edges theorem
// requires every emitted WSPD pair to be genuinely 2-separated, and
// single-point leaves guarantee that (multi-point leaves would force the
// WSPD to emit occasional non-separated leaf pairs, for which one BCCP
// edge per pair is not enough).
func Compute(pts geom.Points) []Edge {
	t := kdtree.Build(pts, kdtree.Options{Split: kdtree.ObjectMedian, LeafSize: 1})
	return ComputeFromTree(t)
}

// ComputeFromTree computes the EMST over the points of an existing kd-tree.
func ComputeFromTree(t *kdtree.Tree) []Edge {
	n := t.Pts.Len()
	if n < 2 {
		return nil
	}
	pairs := wspd.Compute(t, 2.0)

	// One candidate edge per WSPD pair: the exact BCCP of the pair.
	cands := make([]Edge, len(pairs))
	parlay.For(len(pairs), 8, func(i int) {
		r := closestpair.BCCPNodes(t, t, pairs[i].A, pairs[i].B,
			closestpair.Result{A: -1, B: -1, SqDist: math.Inf(1)})
		cands[i] = Edge{U: r.A, V: r.B, SqDist: r.SqDist}
	})

	// Intra-leaf candidate edges (the WSPD recursion does not descend into
	// leaves, so pairs inside one leaf are covered here).
	leafEdges := collectLeafEdges(t)
	cands = append(cands, leafEdges...)

	// Kruskal.
	parlay.Sort(cands, func(a, b Edge) bool {
		if a.SqDist != b.SqDist {
			return a.SqDist < b.SqDist
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	uf := unionfind.New(n)
	out := make([]Edge, 0, n-1)
	for _, e := range cands {
		if e.U < 0 {
			continue
		}
		if uf.Union(e.U, e.V) {
			out = append(out, e)
			if len(out) == n-1 {
				break
			}
		}
	}
	return out
}

// collectLeafEdges returns every pair of points that share a leaf. A leaf's
// points are its rows [Lo, Hi), and edges carry the rows' labels.
func collectLeafEdges(t *kdtree.Tree) []Edge {
	// The flat preorder arena makes leaf collection a linear scan — no
	// recursive pointer walk.
	var leaves []*kdtree.Node
	for i := range t.Nodes {
		if nd := &t.Nodes[i]; nd.IsLeaf() && nd.Size() > 1 {
			leaves = append(leaves, nd)
		}
	}
	counts := make([]int, len(leaves))
	for i, l := range leaves {
		m := l.Size()
		counts[i] = m * (m - 1) / 2
	}
	total := parlay.ScanInts(counts)
	out := make([]Edge, total)
	parlay.For(len(leaves), 4, func(i int) {
		lo, hi := int(leaves[i].Lo), int(leaves[i].Hi)
		k := counts[i]
		for a := lo; a < hi; a++ {
			pa := t.Pts.At(a)
			for b := a + 1; b < hi; b++ {
				out[k] = Edge{U: t.Idx[a], V: t.Idx[b], SqDist: geom.SqDist(pa, t.Pts.At(b))}
				k++
			}
		}
	})
	return out
}

// TotalWeight returns the sum of Euclidean edge lengths.
func TotalWeight(edges []Edge) float64 {
	s := 0.0
	for _, e := range edges {
		s += math.Sqrt(e.SqDist)
	}
	return s
}

// Prim is the quadratic oracle (exact EMST by Prim's algorithm on the
// complete graph) used to validate Compute in tests.
func Prim(pts geom.Points) []Edge {
	n := pts.Len()
	if n < 2 {
		return nil
	}
	inTree := make([]bool, n)
	bestDist := make([]float64, n)
	bestFrom := make([]int32, n)
	for i := range bestDist {
		bestDist[i] = math.Inf(1)
		bestFrom[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		bestDist[j] = pts.SqDist(0, j)
		bestFrom[j] = 0
	}
	out := make([]Edge, 0, n-1)
	for len(out) < n-1 {
		u, best := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && bestDist[j] < best {
				u, best = j, bestDist[j]
			}
		}
		if u < 0 {
			break
		}
		inTree[u] = true
		out = append(out, Edge{U: bestFrom[u], V: int32(u), SqDist: best})
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if d := pts.SqDist(u, j); d < bestDist[j] {
					bestDist[j] = d
					bestFrom[j] = int32(u)
				}
			}
		}
	}
	return out
}
