package hull3d

import (
	"pargeo/internal/core"
	"pargeo/internal/geom"
	"pargeo/internal/parlay"
)

// insertOne adds one visible point to the hull sequentially: BFS the
// visible set, extract the horizon, and replace the visible region with the
// cone. Shared by the sequential drivers (and counts work for Fig. 12).
func (h *hullState3) insertOne(q int32) {
	vis, _ := h.visibleSet(q, nil, nil)
	h.stats.AddPoints(1)
	h.stats.AddFacets(int64(len(vis)))
	ridges := h.horizonOf(vis, nil)
	base := int32(len(h.facets))
	h.growFacets(len(ridges))
	off := h.reserveLists(int(h.moved(vis)))
	h.stats.AddAlloc(int64(len(ridges)))
	h.addCone(q, vis, ridges, base, off)
}

// SequentialQuickhull is the optimized sequential 3D quickhull (the "Qhull"
// baseline of Fig. 9 and the no-reservation arm of Fig. 12): repeatedly
// take a facet with unprocessed visible points and insert the point
// furthest above it.
func SequentialQuickhull(pts geom.Points) [][3]int32 {
	return SequentialQuickhullStats(pts, nil)
}

// SequentialQuickhullStats is SequentialQuickhull with instrumentation.
func SequentialQuickhullStats(pts geom.Points, stats *core.Stats) [][3]int32 {
	h, ok := newHullState3(pts, stats)
	if !ok {
		return nil // degenerate (planar) input: no 3D hull
	}
	// Work-stack of facet ids that may have points.
	stack := []int32{0, 1, 2, 3}
	for len(stack) > 0 {
		fi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f := &h.facets[fi]
		if f.dead || f.n == 0 {
			continue
		}
		q := f.far
		before := len(h.facets)
		h.insertOne(q)
		h.stats.AddSuccess()
		for k := before; k < len(h.facets); k++ {
			if h.facets[k].n > 0 {
				stack = append(stack, int32(k))
			}
		}
		// fi may still be alive with leftover points if q's visible set did
		// not include it — cannot happen (q came from fi's list, so fi is
		// visible to q and died). Its points were redistributed above.
	}
	return h.extract()
}

// SequentialRandInc is the sequential randomized incremental hull (Clarkson
// & Shor order, one point per step): the second sequential baseline (the
// role CGAL's incremental hull plays in Fig. 9's comparison).
func SequentialRandInc(pts geom.Points, seed uint64) [][3]int32 {
	h, ok := newHullState3(pts, nil)
	if !ok {
		return nil
	}
	perm := parlay.RandomPermutation(pts.Len(), seed)
	for _, q := range perm {
		if h.seed[q] < 0 {
			continue // already interior or on hull
		}
		// The stored facet may have died since assignment; points are
		// redistributed eagerly on every insertion, so seed is always a
		// live visible facet here.
		h.insertOne(q)
	}
	return h.extract()
}
