// Package cluster implements the clustering pipeline ParGeo's §2 motivates
// for its WSPD/EMST modules: "Our kd-tree can be used to generate a
// well-separated pair decomposition, which can in turn be used to compute
// the hierarchical DBSCAN". It provides:
//
//   - single-linkage dendrograms built from the Euclidean minimum spanning
//     tree (cutting the dendrogram at a height yields single-linkage
//     clusters);
//   - HDBSCAN* hierarchies: the same construction over the
//     mutual-reachability distance, whose MST is computed by running the
//     dual-tree EMST machinery over core distances obtained from the
//     kd-tree's k-NN search.
package cluster

import (
	"math"
	"sort"

	"pargeo/internal/emst"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/parlay"
	"pargeo/internal/unionfind"
)

// Dendrogram is a single-linkage merge tree over n points: merge i joins
// the clusters containing A[i] and B[i] at Height[i] (non-decreasing).
type Dendrogram struct {
	N      int
	A, B   []int32
	Height []float64
}

// SingleLinkage builds the exact single-linkage dendrogram of pts via the
// EMST: sorting the MST edges by weight and merging in order is precisely
// single-linkage agglomeration.
func SingleLinkage(pts geom.Points) Dendrogram {
	edges := emst.Compute(pts)
	return dendrogramFromEdges(pts.Len(), edges)
}

func dendrogramFromEdges(n int, edges []emst.Edge) Dendrogram {
	sort.Slice(edges, func(i, j int) bool { return edges[i].SqDist < edges[j].SqDist })
	d := Dendrogram{N: n}
	uf := unionfind.New(n)
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			d.A = append(d.A, e.U)
			d.B = append(d.B, e.V)
			d.Height = append(d.Height, math.Sqrt(e.SqDist))
		}
	}
	return d
}

// Cut returns cluster labels (0..k-1) after merging all pairs with height
// < threshold. Singleton noise points get their own labels.
func (d Dendrogram) Cut(threshold float64) []int32 {
	uf := unionfind.New(d.N)
	for i := range d.Height {
		if d.Height[i] < threshold {
			uf.Union(d.A[i], d.B[i])
		}
	}
	labels := make([]int32, d.N)
	next := int32(0)
	rep := map[int32]int32{}
	for i := 0; i < d.N; i++ {
		r := uf.Find(int32(i))
		if l, ok := rep[r]; ok {
			labels[i] = l
		} else {
			rep[r] = next
			labels[i] = next
			next++
		}
	}
	return labels
}

// CutK returns labels for exactly k clusters (merging all but the k-1
// heaviest dendrogram merges); k is clamped to [1, N].
func (d Dendrogram) CutK(k int) []int32 {
	if k < 1 {
		k = 1
	}
	if k > d.N {
		k = d.N
	}
	keep := len(d.Height) - (k - 1)
	uf := unionfind.New(d.N)
	for i := 0; i < keep; i++ {
		uf.Union(d.A[i], d.B[i])
	}
	labels := make([]int32, d.N)
	next := int32(0)
	rep := map[int32]int32{}
	for i := 0; i < d.N; i++ {
		r := uf.Find(int32(i))
		if l, ok := rep[r]; ok {
			labels[i] = l
		} else {
			rep[r] = next
			labels[i] = next
			next++
		}
	}
	return labels
}

// NumClusters returns the cluster count at a given cut threshold.
func (d Dendrogram) NumClusters(threshold float64) int {
	c := d.N
	for _, h := range d.Height {
		if h < threshold {
			c--
		}
	}
	return c
}

// CoreDistances returns, for every point, its distance to its minPts-th
// nearest neighbor — the core distance of DBSCAN/HDBSCAN — via the
// kd-tree's batched AllKthSqDist pass (each leaf's points answered as
// one group, O(n) output; +Inf when a point has fewer than minPts
// neighbors).
func CoreDistances(pts geom.Points, minPts int) []float64 {
	n := pts.Len()
	t := kdtree.Build(pts, kdtree.Options{})
	sq := t.AllKthSqDist(minPts)
	out := make([]float64, n)
	parlay.For(n, 0, func(i int) {
		out[i] = math.Sqrt(sq[i])
	})
	return out
}

// HDBSCAN builds the HDBSCAN* hierarchy: the single-linkage dendrogram of
// the mutual-reachability distance
//
//	d_mr(a, b) = max(core(a), core(b), dist(a, b)).
//
// The mutual-reachability MST is obtained by Prim's algorithm with the
// distance evaluated on demand; for the moderate sizes this library's
// clustering pipeline targets this is the standard dense construction
// (the paper's companion work accelerates it with a WSPD; the WSPD-based
// EMST here covers the pure-Euclidean case).
func HDBSCAN(pts geom.Points, minPts int) Dendrogram {
	n := pts.Len()
	if n == 0 {
		return Dendrogram{}
	}
	core := CoreDistances(pts, minPts)
	// Prim over the implicit complete mutual-reachability graph.
	inTree := make([]bool, n)
	best := make([]float64, n)
	from := make([]int32, n)
	for i := range best {
		best[i] = math.Inf(1)
		from[i] = -1
	}
	inTree[0] = true
	cur := 0
	mrDist := func(a, b int) float64 {
		d := math.Sqrt(pts.SqDist(a, b))
		return math.Max(d, math.Max(core[a], core[b]))
	}
	var edges []emst.Edge
	for len(edges) < n-1 {
		// Relax from cur, then pick the global min — both data-parallel.
		parlay.ForBlocked(n, 2048, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if !inTree[j] {
					if d := mrDist(cur, j); d < best[j] {
						best[j] = d
						from[j] = int32(cur)
					}
				}
			}
		})
		next := parlay.MinIndexFloat(n, 2048, func(j int) float64 {
			if inTree[j] {
				return math.Inf(1)
			}
			return best[j]
		})
		if next < 0 || math.IsInf(best[next], 1) {
			break
		}
		edges = append(edges, emst.Edge{U: from[next], V: int32(next), SqDist: best[next] * best[next]})
		inTree[next] = true
		cur = next
	}
	return dendrogramFromEdges(n, edges)
}
