// Package hull2d implements the paper's 2-dimensional convex hull suite
// (§3, Fig. 8):
//
//   - MonotoneChain — optimized sequential baseline (the role CGAL's
//     sequential hull plays in the paper's comparison)
//   - SequentialQuickhull — optimized sequential quickhull (the "Qhull"
//     baseline)
//   - Quickhull — parallel recursive quickhull (PBBS-style: parallel
//     filter + parallel furthest point per subproblem)
//   - RandInc — the paper's reservation-based parallel randomized
//     incremental algorithm, specialized to R² (facets are hull edges)
//   - DivideConquer — the paper's practical divide-and-conquer driver:
//     split into c·numProc blocks, sequential quickhull per block in
//     parallel, then a parallel hull of the union of block-hull vertices
//
// All entry points return the hull as point indices in counterclockwise
// order starting from the lexicographically smallest vertex.
package hull2d

import (
	"sort"

	"pargeo/internal/geom"
	"pargeo/internal/parlay"
)

// MonotoneChain computes the hull with Andrew's monotone chain in
// O(n log n): the optimized sequential baseline.
func MonotoneChain(pts geom.Points) []int32 {
	n := pts.Len()
	if n == 0 {
		return nil
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pts.At(int(idx[a])), pts.At(int(idx[b]))
		if pa[0] != pb[0] {
			return pa[0] < pb[0]
		}
		return pa[1] < pb[1]
	})
	// Deduplicate identical points (hulls of multisets).
	uniq := idx[:1]
	for _, i := range idx[1:] {
		last := pts.At(int(uniq[len(uniq)-1]))
		p := pts.At(int(i))
		if p[0] != last[0] || p[1] != last[1] {
			uniq = append(uniq, i)
		}
	}
	idx = uniq
	n = len(idx)
	if n <= 2 {
		return append([]int32(nil), idx...)
	}
	hull := make([]int32, 0, 2*n)
	// Lower chain.
	for _, i := range idx {
		for len(hull) >= 2 &&
			geom.Cross2D(pts.At(int(hull[len(hull)-2])), pts.At(int(hull[len(hull)-1])), pts.At(int(i))) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	// Upper chain.
	lower := len(hull) + 1
	for k := n - 2; k >= 0; k-- {
		i := idx[k]
		for len(hull) >= lower &&
			geom.Cross2D(pts.At(int(hull[len(hull)-2])), pts.At(int(hull[len(hull)-1])), pts.At(int(i))) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	return canonical(hull[:len(hull)-1], pts)
}

// canonical rotates a CCW vertex cycle to start at the lexicographically
// smallest vertex, so all algorithms produce comparable output.
func canonical(h []int32, pts geom.Points) []int32 {
	if len(h) == 0 {
		return h
	}
	best := 0
	for i := 1; i < len(h); i++ {
		a, b := pts.At(int(h[i])), pts.At(int(h[best]))
		if a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) {
			best = i
		}
	}
	out := make([]int32, 0, len(h))
	out = append(out, h[best:]...)
	out = append(out, h[:best]...)
	return out
}

// seqCutoff is the input size up to which the parallel hulls run the
// sequential quickhull instead.
const seqCutoff = 4096

// extremeX returns the lexicographic extremes with a parallel reduction.
func extremeX(pts geom.Points, idx []int32) (lo, hi int32) {
	type pair struct{ lo, hi int32 }
	lex := func(a, b int32) bool { // a < b
		pa, pb := pts.At(int(a)), pts.At(int(b))
		return pa[0] < pb[0] || (pa[0] == pb[0] && pa[1] < pb[1])
	}
	r := parlay.Reduce(len(idx), 0, pair{-1, -1},
		func(i int) pair { return pair{idx[i], idx[i]} },
		func(a, b pair) pair {
			if a.lo < 0 {
				return b
			}
			if b.lo < 0 {
				return a
			}
			if lex(b.lo, a.lo) {
				a.lo = b.lo
			}
			if lex(a.hi, b.hi) {
				a.hi = b.hi
			}
			return a
		})
	return r.lo, r.hi
}

// SequentialQuickhull computes the hull with the classic recursive
// quickhull, processing the point furthest from each edge first: the
// optimized sequential quickhull baseline ("Qhull" in Fig. 8). It reads the
// input twice (octagonSplit) and then recurses over the few survivors,
// partitioning them in place.
func SequentialQuickhull(pts geom.Points) []int32 {
	n := pts.Len()
	if n == 0 {
		return nil
	}
	if n <= 2 {
		return canonical(dedupe([]int32{0, 1}[:n], pts), pts)
	}
	s := octagonSplit(pts)
	if s.lo == s.hi {
		return []int32{s.lo} // all points identical
	}
	scratch := make([]int32, max(len(s.lower), len(s.upper)))
	hull := []int32{s.lo}
	seqHullRec(pts, s.lower, scratch, s.lo, s.farLower, s.hi, &hull) // right of lo->hi: lower chain (CCW)
	hull = append(hull, s.hi)
	seqHullRec(pts, s.upper, scratch, s.hi, s.farUpper, s.lo, &hull)
	return canonical(hull, pts)
}

// split is octagonSplit's result: the lexicographic x-extremes lo and hi,
// the surviving points below the chord lo->hi (Cross2D(lo, hi, p) < 0) and
// above it, and the point of each side furthest from the chord (-1 when
// the side is empty).
type split struct {
	lo, hi             int32
	lower, upper       []int32
	farLower, farUpper int32
}

// octagonSplit is the quickhull's first level with the Akl–Toussaint
// filter. One pass finds the lexicographic x-extremes and the points
// extreme in y, x+y and x−y; they are hull points, in counterclockwise
// order. A second pass drops every point strictly inside their octagon
// (those lie strictly inside the hull) and splits the rest above or below
// the chord between the x-extremes, keeping each side's furthest point.
func octagonSplit(pts geom.Points) split {
	d, data := pts.Dim, pts.Data
	n := pts.Len()
	// ext holds the octagon's corners counterclockwise from the leftmost:
	// the points minimizing (x, y) lexicographically, x+y, y and y−x, then
	// those maximizing them. mn and mx are the four keys' extreme values,
	// loY and hiY the y of the lexicographic x-extremes.
	var ext [8]int32
	x0, y0 := data[0], data[1]
	mn := [4]float64{x0, x0 + y0, y0, y0 - x0}
	mx, loY, hiY := mn, y0, y0
	for i := 1; i < n; i++ {
		x, y := data[i*d], data[i*d+1]
		v := [4]float64{x, x + y, y, y - x}
		for k := 1; k < 4; k++ {
			if v[k] < mn[k] {
				mn[k], ext[k] = v[k], int32(i)
			}
			if v[k] > mx[k] {
				mx[k], ext[k+4] = v[k], int32(i)
			}
		}
		if x < mn[0] || x == mn[0] && y < loY {
			mn[0], loY, ext[0] = x, y, int32(i)
		}
		if x > mx[0] || x == mx[0] && y > hiY {
			mx[0], hiY, ext[4] = x, y, int32(i)
		}
	}
	s := split{lo: ext[0], hi: ext[4], farLower: -1, farUpper: -1}
	if s.lo == s.hi {
		return s
	}
	at := func(i int32) pt { return pt{data[int(i)*d], data[int(i)*d+1]} }
	lower := newChain(at, [5]int32{ext[0], ext[1], ext[2], ext[3], ext[4]})
	upper := newChain(at, [5]int32{ext[4], ext[5], ext[6], ext[7], ext[0]})
	a, b := at(s.lo), at(s.hi)
	chord := edge{a.x, a.y, b.x - a.x, b.y - a.y}
	var dLower, dUpper float64
	for i := 0; i < n; i++ {
		x, y := data[i*d], data[i*d+1]
		c := chord.left(x, y)
		switch {
		case c > 0:
			if upper.inside(x, y) {
				continue
			}
			s.upper = append(s.upper, int32(i))
			if c > dUpper {
				s.farUpper, dUpper = int32(i), c
			}
		case c < 0:
			if lower.inside(x, y) {
				continue
			}
			s.lower = append(s.lower, int32(i))
			if c < dLower {
				s.farLower, dLower = int32(i), c
			}
		}
	}
	return s
}

type pt struct{ x, y float64 }

// edge is a directed edge from (ax, ay) along (dx, dy).
type edge struct{ ax, ay, dx, dy float64 }

// left is geom.Cross2D(a, b, (x, y)) for the edge a->b, to the last bit:
// positive when (x, y) lies strictly left of it.
func (e *edge) left(x, y float64) float64 { return e.dx*(y-e.ay) - e.dy*(x-e.ax) }

// chain is one side of the octagon, between the x-extremes: its four
// edges, counterclockwise.
type chain [4]edge

// newChain builds the edges through the corners ids, skipping each corner
// equal to its predecessor (a zero-length edge would make every point look
// outside). A chain with fewer distinct edges repeats its last one. The
// two end corners differ unless every point is the same.
func newChain(at func(int32) pt, ids [5]int32) chain {
	var c chain
	n, prev := 0, at(ids[0])
	for _, i := range ids[1:] {
		if p := at(i); p != prev {
			c[n] = edge{prev.x, prev.y, p.x - prev.x, p.y - prev.y}
			n, prev = n+1, p
		}
	}
	for ; n < len(c); n++ {
		c[n] = c[n-1]
	}
	return c
}

// inside reports whether (x, y) lies strictly left of every edge of c.
func (c *chain) inside(x, y float64) bool {
	return c[0].left(x, y) > 0 && c[1].left(x, y) > 0 && c[2].left(x, y) > 0 && c[3].left(x, y) > 0
}

// seqHullRec appends to hull the CCW hull vertices strictly between a and
// b. cand holds the points outside edge a->b (Cross2D(a, b, p) < 0), and
// far is the one furthest from it. The call partitions cand in place, with
// scratch (at least len(cand) long) holding the right side while the left
// side is compacted, and finds each side's furthest point in that pass.
func seqHullRec(pts geom.Points, cand, scratch []int32, a, far, b int32, hull *[]int32) {
	if len(cand) == 0 {
		return
	}
	pa, pf, pb := pts.At(int(a)), pts.At(int(far)), pts.At(int(b))
	nl, nr := 0, 0
	farL, farR := int32(-1), int32(-1)
	var dl, dr float64
	for _, i := range cand {
		p := pts.At(int(i))
		if c := geom.Cross2D(pa, pf, p); c < 0 {
			cand[nl] = i
			nl++
			if c < dl {
				farL, dl = i, c
			}
		} else if c := geom.Cross2D(pf, pb, p); c < 0 {
			scratch[nr] = i
			nr++
			if c < dr {
				farR, dr = i, c
			}
		}
	}
	copy(cand[nl:], scratch[:nr])
	seqHullRec(pts, cand[:nl], scratch, a, farL, far, hull)
	*hull = append(*hull, far)
	seqHullRec(pts, cand[nl:nl+nr], scratch, far, farR, b, hull)
}

func dedupe(idx []int32, pts geom.Points) []int32 {
	if len(idx) <= 1 {
		return idx
	}
	out := idx[:0:0]
	for _, i := range idx {
		dup := false
		for _, j := range out {
			a, b := pts.At(int(i)), pts.At(int(j))
			if a[0] == b[0] && a[1] == b[1] {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, i)
		}
	}
	return out
}

// Quickhull computes the hull with the parallel recursive quickhull used by
// PBBS (referenced as the R² "QuickHull" in §6.1): each recursive call
// finds the furthest point with a parallel max-reduction and partitions the
// candidates with parallel filters; sibling calls run in parallel.
func Quickhull(pts geom.Points) []int32 {
	n := pts.Len()
	if n == 0 {
		return nil
	}
	if n <= seqCutoff {
		return SequentialQuickhull(pts)
	}
	idx := make([]int32, n)
	parlay.For(n, 0, func(i int) { idx[i] = int32(i) })
	lo, hi := extremeX(pts, idx)
	if lo == hi {
		return []int32{lo}
	}
	pa, pb := pts.At(int(lo)), pts.At(int(hi))
	upper := parlay.Pack(idx, func(i int) bool {
		k := idx[i]
		return k != lo && k != hi && geom.Cross2D(pa, pb, pts.At(int(k))) > 0
	})
	lower := parlay.Pack(idx, func(i int) bool {
		k := idx[i]
		return k != lo && k != hi && geom.Cross2D(pa, pb, pts.At(int(k))) < 0
	})
	var lowHull, upHull []int32
	parlay.Do(
		func() { lowHull = parHullRec(pts, lower, lo, hi) },
		func() { upHull = parHullRec(pts, upper, hi, lo) },
	)
	hull := make([]int32, 0, len(lowHull)+len(upHull)+2)
	hull = append(hull, lo)
	hull = append(hull, lowHull...)
	hull = append(hull, hi)
	hull = append(hull, upHull...)
	return canonical(hull, pts)
}

const parHullSeqThreshold = 2048

// parHullRec returns the CCW hull vertices strictly between a and b, given
// cand = points outside edge a->b (Cross2D(a,b,p) < 0).
func parHullRec(pts geom.Points, cand []int32, a, b int32) []int32 {
	if len(cand) == 0 {
		return nil
	}
	pa, pb := pts.At(int(a)), pts.At(int(b))
	fi := parlay.MinIndexFloat(len(cand), 0, func(i int) float64 {
		return geom.Cross2D(pa, pb, pts.At(int(cand[i])))
	})
	far := cand[fi]
	if len(cand) <= parHullSeqThreshold {
		var out []int32
		seqHullRec(pts, cand, make([]int32, len(cand)), a, far, b, &out)
		return out
	}
	pf := pts.At(int(far))
	var left, right []int32
	parlay.Do(
		func() {
			left = parlay.Pack(cand, func(i int) bool {
				k := cand[i]
				return k != far && geom.Cross2D(pa, pf, pts.At(int(k))) < 0
			})
		},
		func() {
			right = parlay.Pack(cand, func(i int) bool {
				k := cand[i]
				return k != far && geom.Cross2D(pf, pb, pts.At(int(k))) < 0
			})
		},
	)
	var lh, rh []int32
	parlay.Do(
		func() { lh = parHullRec(pts, left, a, far) },
		func() { rh = parHullRec(pts, right, far, b) },
	)
	out := make([]int32, 0, len(lh)+len(rh)+1)
	out = append(out, lh...)
	out = append(out, far)
	out = append(out, rh...)
	return out
}

// DivideConquer computes the hull with the paper's divide-and-conquer
// strategy (§3 "Parallel Divide-and-Conquer"): partition the input into
// c·numProc equal blocks, compute each block's hull with the sequential
// quickhull (blocks in parallel), then compute the hull of the union of the
// block-hull vertices with the parallel algorithm.
func DivideConquer(pts geom.Points) []int32 {
	n := pts.Len()
	numBlocks, blockSize := dcBlocks(n)
	if n <= seqCutoff || numBlocks < 2 {
		return SequentialQuickhull(pts)
	}
	subHulls := make([][]int32, numBlocks)
	parlay.For(numBlocks, 1, func(b int) {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		if lo >= hi {
			return
		}
		sub := SequentialQuickhull(pts.Slice(lo, hi))
		for i := range sub {
			sub[i] += int32(lo) // back to global indices
		}
		subHulls[b] = sub
	})
	var union []int32
	for _, h := range subHulls {
		union = append(union, h...)
	}
	gathered := pts.Gather(union)
	// The paper computes the final hull of the block-hull vertices with the
	// reservation-based parallel algorithm. A union of at most seqCutoff
	// vertices is too small for its rounds to pay (on 1 M in-sphere points
	// it holds about a thousand), so it gets the sequential quickhull, as
	// Quickhull's small inputs do.
	var final []int32
	if len(union) > seqCutoff {
		final = ReservationQuickhull(gathered, nil)
	} else {
		final = SequentialQuickhull(gathered)
	}
	out := make([]int32, len(final))
	for i, k := range final {
		out[i] = union[k]
	}
	return out
}

// dcBlocks is DivideConquer's partition of n points into c·numProc blocks
// (c = 4) of blockSize points each.
func dcBlocks(n int) (numBlocks, blockSize int) {
	const c = 4
	numBlocks = c * parlay.NumWorkers()
	return numBlocks, (n + numBlocks - 1) / numBlocks
}
