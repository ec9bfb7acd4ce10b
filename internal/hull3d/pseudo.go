package hull3d

import (
	"slices"

	"pargeo/internal/core"
	"pargeo/internal/geom"
	"pargeo/internal/parlay"
)

// Pseudohull point culling (§3 "Point Culling via Pseudohull Computation",
// after Tang et al.): grow a (generally non-convex) "pseudohull" by
// repeatedly splitting each facet toward its furthest visible point; points
// that end up inside the pseudohull cannot be hull vertices and are pruned.
// The final hull is computed over the survivors with the reservation-based
// parallel quickhull.
//
// Differences from Tang et al.'s GPU version, mirroring the paper's: the
// facet recursion forks through parlay's work-stealing scheduler rather
// than running in lock-step over preallocated GPU buffers; a split
// classifies each point into its sub-facet in one pass that also finds
// every sub-facet's furthest point, so each level costs at most three
// plane tests per point and no separate max-reduction; and growth stops
// once a facet holds fewer than CullThreshold points, which bounds
// recursion depth on skewed inputs while leaving only a negligible number
// of extra unpruned points.

// CullThreshold is the default facet point count below which the pseudohull
// stops growing.
const CullThreshold = 64

// Pseudo computes the 3D hull with pseudohull culling followed by the
// reservation-based parallel quickhull.
func Pseudo(pts geom.Points) [][3]int32 {
	facets, _ := PseudoWithStats(pts, CullThreshold)
	return facets
}

// PseudoWithStats additionally returns the number of points that survived
// pruning (the §6.1 statistic: e.g. 83669 of 10M for 3D-IS-10M vs 2316 for
// 3D-U-10M).
func PseudoWithStats(pts geom.Points, threshold int) ([][3]int32, int) {
	return pseudo(pts, threshold, nil)
}

// pseudo is PseudoWithStats with the final quickhull's reservation
// counters collected into stats.
func pseudo(pts geom.Points, threshold int, stats *core.Stats) ([][3]int32, int) {
	cand := pseudoSurvivors(pts, threshold)
	if cand == nil {
		return nil, 0
	}
	sub := QuickhullStats(pts.Gather(cand), stats)
	// Map facet vertex ids back to the original buffer.
	out := make([][3]int32, len(sub))
	for i, f := range sub {
		out[i] = [3]int32{cand[f[0]], cand[f[1]], cand[f[2]]}
	}
	return out, len(cand)
}

// pseudoSurvivors grows the pseudohull and returns the ids of the points it
// does not prune, the initial tetrahedron's corners first; nil for
// degenerate input.
func pseudoSurvivors(pts geom.Points, threshold int) []int32 {
	if threshold <= 0 {
		threshold = CullThreshold
	}
	h, ok := newHullState3(pts, nil)
	if !ok {
		return nil
	}
	// The initial tetra corners participate in the final hull computation.
	// No facet list holds a corner, and no two lists share a point.
	var cand []int32
	for fi := range 4 {
		for _, v := range h.facets[fi].v {
			if !slices.Contains(cand, v) {
				cand = append(cand, v)
			}
		}
	}
	survivors := make([][]int32, 4)
	parlay.For(4, 1, func(k int) {
		f := &h.facets[k]
		survivors[k] = pseudoRec(pts, f.v, h.ptsOf(f), f.far, threshold)
	})
	for _, s := range survivors {
		cand = append(cand, s...)
	}
	return cand
}

// pseudoRec grows the pseudohull under triangle tri over its assigned
// visible points cand, whose furthest point above tri is q, returning the
// ids that survive culling (leftover points of small facets plus the apex
// vertices chosen along the way).
func pseudoRec(pts geom.Points, tri [3]int32, cand []int32, q int32, threshold int) []int32 {
	if len(cand) <= threshold {
		return cand
	}
	a, b, c := pts.At(int(tri[0])), pts.At(int(tri[1])), pts.At(int(tri[2]))
	qc := pts.At(int(q))
	// Split toward q: three descendant triangles sharing apex q.
	tris := [3][3]int32{
		{tri[0], tri[1], q},
		{tri[1], tri[2], q},
		{tri[2], tri[0], q},
	}
	planes := [3]geom.Plane3{
		geom.NewPlane3(a, b, qc),
		geom.NewPlane3(b, c, qc),
		geom.NewPlane3(c, a, qc),
	}
	// Each point goes to the first sub-facet it is strictly above, so it
	// lands once.
	ids, start, far := split(len(cand), func(i int) int32 { return cand[i] }, func(i int) (int, float64) {
		p := cand[i]
		if p == q {
			return -1, 0
		}
		x := pts.At(int(p))
		for s := range planes {
			if d := planes[s].Side(x); d > 0 {
				return s, d
			}
		}
		return -1, 0
	})
	var out [3][]int32
	run := func(s int) func() {
		return func() { out[s] = pseudoRec(pts, tris[s], ids[start[s]:start[s+1]], far[s], threshold) }
	}
	// Fork while a subproblem is above the sequential grain; the scheduler
	// balances the (skew-prone) facet tree, so no depth limit is needed.
	if len(cand) > 4096 {
		parlay.Do(run(0), run(1), run(2))
	} else {
		run(0)()
		run(1)()
		run(2)()
	}
	res := []int32{q}
	for s := 0; s < 3; s++ {
		res = append(res, out[s]...)
	}
	return res
}

// DivideConquer computes the 3D hull with the paper's divide-and-conquer
// strategy: partition into c·numProc blocks, sequential quickhull per block
// (blocks in parallel), then the reservation-based parallel quickhull over
// the union of the block hulls' vertices.
func DivideConquer(pts geom.Points) [][3]int32 {
	n := pts.Len()
	const c = 4
	numBlocks := c * parlay.NumWorkers()
	if n < 8192 || numBlocks < 2 {
		return SequentialQuickhull(pts)
	}
	blockSize := (n + numBlocks - 1) / numBlocks
	subVerts := make([][]int32, numBlocks)
	parlay.For(numBlocks, 1, func(bk int) {
		lo := bk * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		if lo >= hi {
			return
		}
		sub := SequentialQuickhull(pts.Slice(lo, hi))
		verts := Vertices(sub)
		for i := range verts {
			verts[i] += int32(lo)
		}
		if sub == nil {
			// Degenerate block (coplanar points): keep all its points as
			// candidates so no hull vertex is lost.
			verts = make([]int32, hi-lo)
			for i := range verts {
				verts[i] = int32(lo + i)
			}
		}
		subVerts[bk] = verts
	})
	var union []int32
	for _, v := range subVerts {
		union = append(union, v...)
	}
	gathered := pts.Gather(union)
	sub := Quickhull(gathered)
	out := make([][3]int32, len(sub))
	for i, f := range sub {
		out[i] = [3]int32{union[f[0]], union[f[1]], union[f[2]]}
	}
	return out
}
