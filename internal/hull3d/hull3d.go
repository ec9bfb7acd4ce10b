// Package hull3d implements the paper's 3-dimensional convex hull suite
// (§3, Fig. 9): the facet/ridge/horizon machinery, sequential quickhull and
// sequential randomized-incremental baselines, the reservation-based
// parallel randomized incremental and quickhull algorithms (Fig. 5), Tang
// et al.'s pseudohull point-culling heuristic, and the divide-and-conquer
// driver.
//
// The hull is a triangulated convex polytope: each facet stores its three
// vertices in counterclockwise order as seen from outside, plus the
// neighboring facet across each directed edge. Visible points are
// distributed across facets — each outside point stores one facet it can
// see, and the full visible set is recovered by a local breadth-first
// search over the facet adjacency graph when the point is processed (§3:
// "we only store the reference of an arbitrary visible facet to each
// visible point, from which we use a local breadth-first search to retrieve
// all of the visible facets only when needed").
package hull3d

import (
	"math"
	"slices"

	"pargeo/internal/core"
	"pargeo/internal/geom"
	"pargeo/internal/parlay"
)

const (
	seedInside int32 = -1 // point determined interior
	seedOnHull int32 = -2 // point became a hull vertex
)

// facet is a hull triangle. Vertices v[0..2] are CCW from outside; nbr[i]
// is the facet across directed edge v[i] -> v[(i+1)%3]. It holds no
// pointer, so the collector never scans the facet array.
type facet struct {
	v     [3]int32
	nbr   [3]int32
	lo, n int32 // its visible points: the hull's lists[lo : lo+n]
	far   int32 // the one of them furthest above the facet (ties to the smaller id)
	dead  bool
}

type hullState3 struct {
	pts      geom.Points
	facets   []facet
	lists    []int32 // the facets' point lists, back to back, and garbage
	spare    []int32 // the buffer lists last compacted out of
	res      *core.Reservations
	seed     []int32    // per point: facet id, or seedInside/seedOnHull
	prio     []int64    // per point: its reservation priority (rounds only)
	interior [3]float64 // a point strictly inside the hull (tetra centroid)
	stats    *core.Stats
	infos    []visInfo // a round's per-point scratch, kept across rounds
}

// ptsOf returns the visible points assigned to facet f.
func (h *hullState3) ptsOf(f *facet) []int32 { return h.lists[f.lo : f.lo+f.n] }

// plane returns facet f's oriented plane.
func (h *hullState3) plane(f *facet) geom.Plane3 {
	return geom.NewPlane3(h.pts.At(int(f.v[0])), h.pts.At(int(f.v[1])), h.pts.At(int(f.v[2])))
}

// height is the orientation determinant of point p against facet f: positive
// exactly when p is strictly outside (visible from) f, and proportional to
// p's distance above f's plane.
func (h *hullState3) height(f *facet, p int32) float64 {
	return geom.PlaneSide3(h.pts.At(int(f.v[0])), h.pts.At(int(f.v[1])), h.pts.At(int(f.v[2])), h.pts.At(int(p)))
}

// newHullState3 builds the initial tetrahedron and assigns every point to a
// visible facet. ok is false for degenerate inputs (all points coplanar);
// callers fall back to a planar reduction.
func newHullState3(pts geom.Points, stats *core.Stats) (*hullState3, bool) {
	n := pts.Len()
	// v0, v1: extremes along x (lexicographic tiebreak).
	v0, v1 := int32(0), int32(0)
	for i := 1; i < n; i++ {
		if lex3Less(pts.At(i), pts.At(int(v0))) {
			v0 = int32(i)
		}
		if lex3Less(pts.At(int(v1)), pts.At(i)) {
			v1 = int32(i)
		}
	}
	if v0 == v1 {
		return nil, false
	}
	// v2: furthest from line v0-v1.
	a, b := pts.At(int(v0)), pts.At(int(v1))
	i2 := parlay.MaxIndexFloat(n, 0, func(i int) float64 {
		return sqDistToLine(a, b, pts.At(i))
	})
	v2 := int32(i2)
	if sqDistToLine(a, b, pts.At(i2)) == 0 {
		return nil, false // collinear
	}
	// v3: furthest from plane v0-v1-v2.
	c := pts.At(int(v2))
	base := geom.NewPlane3(a, b, c)
	i3 := parlay.MaxIndexFloat(n, 0, func(i int) float64 {
		return math.Abs(base.Side(pts.At(i)))
	})
	v3 := int32(i3)
	if base.Side(pts.At(i3)) == 0 {
		return nil, false // coplanar
	}
	h := &hullState3{
		pts:   pts,
		seed:  make([]int32, n),
		stats: stats,
	}
	d := pts.At(int(v3))
	for k := 0; k < 3; k++ {
		h.interior[k] = (a[k] + b[k] + c[k] + d[k]) / 4
	}
	// Four tetra facets, each oriented outward (interior below the plane).
	quad := [4][3]int32{
		{v0, v1, v2},
		{v0, v1, v3},
		{v0, v2, v3},
		{v1, v2, v3},
	}
	h.facets = make([]facet, 4)
	for fi, tv := range quad {
		if geom.PlaneSide3(pts.At(int(tv[0])), pts.At(int(tv[1])), pts.At(int(tv[2])), h.interior[:]) > 0 {
			tv[1], tv[2] = tv[2], tv[1]
		}
		h.facets[fi] = facet{v: tv, nbr: [3]int32{-1, -1, -1}}
	}
	// Adjacency by matching directed edges: edge (u,w) of one facet matches
	// edge (w,u) of its neighbor.
	type edgeKey struct{ u, w int32 }
	owner := map[edgeKey][2]int32{} // edge -> (facet, edge slot)
	for fi := range h.facets {
		f := &h.facets[fi]
		for e := 0; e < 3; e++ {
			u, w := f.v[e], f.v[(e+1)%3]
			if m, ok := owner[edgeKey{w, u}]; ok {
				f.nbr[e] = m[0]
				h.facets[m[0]].nbr[m[1]] = int32(fi)
			} else {
				owner[edgeKey{u, w}] = [2]int32{int32(fi), int32(e)}
			}
		}
	}
	h.res = core.NewReservations(4)
	h.stats.AddAlloc(4)
	// Assign every point to its first visible facet, bucketing as we go.
	var planes [4]geom.Plane3
	for fi := range planes {
		planes[fi] = h.plane(&h.facets[fi])
	}
	ids, start, far := split(n, func(i int) int32 { return int32(i) }, func(i int) (int, float64) {
		p := int32(i)
		if p == v0 || p == v1 || p == v2 || p == v3 {
			h.seed[i] = seedOnHull
			return -1, 0
		}
		h.seed[i] = seedInside
		x := pts.At(i)
		for fi := range planes {
			if d := planes[fi].Side(x); d > 0 {
				h.seed[i] = int32(fi)
				return fi, d
			}
		}
		return -1, 0
	})
	h.lists = ids
	for fi := range h.facets {
		f := &h.facets[fi]
		f.lo, f.n, f.far = start[fi], start[fi+1]-start[fi], far[fi]
	}
	return h, true
}

// splitGrain is the number of candidates one split block classifies.
const splitGrain = parlay.DefaultGrain

// split distributes n candidates over at most four facets in one pass.
// side(i) is called exactly once per candidate: it returns the slot the
// candidate lands in (-1 for none) and its height above that slot's facet.
// id(i) is the candidate's point id. It returns the ids grouped by slot,
// each slot in candidate order — slot s holds ids[start[s]:start[s+1]] —
// and each slot's furthest point (ties to the smaller id; -1 when the slot
// is empty), so a facet built from a slot never searches it for its apex
// again.
func split(n int, id func(i int) int32, side func(i int) (int, float64)) (ids []int32, start [5]int32, far [4]int32) {
	type block struct {
		count  [4]int32
		far    [4]int32
		height [4]float64
	}
	slot := make([]int8, n)
	blocks := make([]block, (n+splitGrain-1)/splitGrain)
	parlay.For(len(blocks), 1, func(b int) {
		bl := &blocks[b]
		bl.far = [4]int32{-1, -1, -1, -1}
		for i := b * splitGrain; i < min((b+1)*splitGrain, n); i++ {
			s, d := side(i)
			slot[i] = int8(s)
			if s < 0 {
				continue
			}
			bl.count[s]++
			if p := id(i); further(p, d, bl.far[s], bl.height[s]) {
				bl.far[s], bl.height[s] = p, d
			}
		}
	})
	// Slot totals, each slot's furthest point, and then every (block,
	// slot)'s output offset.
	far = [4]int32{-1, -1, -1, -1}
	var height [4]float64
	for b := range blocks {
		bl := &blocks[b]
		for s := range far {
			start[s+1] += bl.count[s]
			if p := bl.far[s]; p >= 0 && further(p, bl.height[s], far[s], height[s]) {
				far[s], height[s] = p, bl.height[s]
			}
		}
	}
	for s := range far {
		start[s+1] += start[s]
	}
	next := [4]int32(start[:4])
	for b := range blocks {
		bl := &blocks[b]
		for s := range next {
			c := bl.count[s]
			bl.count[s] = next[s]
			next[s] += c
		}
	}
	ids = make([]int32, start[4])
	parlay.For(len(blocks), 1, func(b int) {
		next := blocks[b].count
		for i := b * splitGrain; i < min((b+1)*splitGrain, n); i++ {
			if s := slot[i]; s >= 0 {
				ids[next[s]] = id(i)
				next[s]++
			}
		}
	})
	return ids, start, far
}

// further reports whether point p at height d replaces far, at height h, as
// a facet's furthest point: far is -1 for none, and ties go to the smaller
// id.
func further(p int32, d float64, far int32, h float64) bool {
	return far < 0 || d > h || (d == h && p < far)
}

func lex3Less(a, b []float64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

func sqDistToLine(a, b, p []float64) float64 {
	abx, aby, abz := b[0]-a[0], b[1]-a[1], b[2]-a[2]
	apx, apy, apz := p[0]-a[0], p[1]-a[1], p[2]-a[2]
	// |ab x ap|^2 / |ab|^2
	cx := aby*apz - abz*apy
	cy := abz*apx - abx*apz
	cz := abx*apy - aby*apx
	ab2 := abx*abx + aby*aby + abz*abz
	if ab2 == 0 {
		return 0
	}
	return (cx*cx + cy*cy + cz*cz) / ab2
}

// visibleSet runs the local BFS from q's seed facet, returning the facets
// visible to q and the non-visible boundary facets adjacent to the horizon
// in the (truncated) buffers vis and boundary.
func (h *hullState3) visibleSet(q int32, vis, boundary []int32) ([]int32, []int32) {
	vis = append(vis[:0], h.seed[q])
	boundary = boundary[:0]
	for head := 0; head < len(vis); head++ {
		f := &h.facets[vis[head]]
		for e := 0; e < 3; e++ {
			nb := f.nbr[e]
			if slices.Contains(vis, nb) || slices.Contains(boundary, nb) {
				continue
			}
			if h.height(&h.facets[nb], q) > 0 {
				vis = append(vis, nb)
			} else {
				boundary = append(boundary, nb)
			}
		}
	}
	return vis, boundary
}

// ridge is a directed horizon edge (u -> w) as seen CCW from q's side,
// together with the boundary facet across it and that facet's edge slot.
type ridge struct {
	u, w     int32
	boundary int32
	slot     int32
}

// horizonOf marks the visible set vis dead and returns its horizon, in the
// (truncated) buffer ridges, as one closed loop of ridges, each starting
// where the previous one ends. The caller must own vis and its boundary
// facets.
func (h *hullState3) horizonOf(vis []int32, ridges []ridge) []ridge {
	edges := 0
	for _, fi := range vis {
		h.facets[fi].dead = true
	}
	start, startE := int32(-1), 0
	for _, fi := range vis {
		for e, nb := range h.facets[fi].nbr {
			if !h.facets[nb].dead {
				edges++
				start, startE = fi, e
			}
		}
	}
	if edges == 0 {
		panic("hull3d: malformed horizon loop")
	}
	// Walk the loop: from ridge (u -> w) in facet f, turn around w through
	// the visible facets until an edge leaving w borders a live facet.
	ridges = slices.Grow(ridges[:0], edges)
	fi, e := start, startE
	for steps := 0; steps <= 3*len(vis); steps++ {
		f := &h.facets[fi]
		if nb := f.nbr[e]; !h.facets[nb].dead {
			u, w := f.v[e], f.v[(e+1)%3]
			ridges = append(ridges, ridge{u: u, w: w, boundary: nb, slot: edgeSlot(&h.facets[nb], w, u)})
			if len(ridges) == edges {
				break
			}
			e = (e + 1) % 3
			continue
		}
		// The edge (w -> x) is shared with visible facet g, as (x -> w);
		// continue from g's edge leaving w.
		w, x := f.v[e], f.v[(e+1)%3]
		fi = f.nbr[e]
		e = (int(edgeSlot(&h.facets[fi], x, w)) + 1) % 3
	}
	if len(ridges) != edges || ridges[len(ridges)-1].w != ridges[0].u {
		// The horizon of an outside point on a convex polytope is one
		// simple closed loop; anything else means the facet structure is
		// corrupt (an internal invariant violation, not a user error).
		panic("hull3d: malformed horizon loop")
	}
	return ridges
}

// edgeSlot returns the slot of directed edge (u -> w) in facet g, or -1.
func edgeSlot(g *facet, u, w int32) int32 {
	for s := 0; s < 3; s++ {
		if g.v[s] == u && g.v[(s+1)%3] == w {
			return int32(s)
		}
	}
	return -1
}

// addCone replaces the visible set of winner q, already marked dead by
// horizonOf, with a cone of new facets from the horizon loop ridges to q.
// New facet ids are preallocated as [base, base+len(ridges)), and the
// redistributed points' lists go to lists[off:], which has room for every
// point of the visible set but q. The caller guarantees exclusive access
// to the visible and boundary facets (via reservations or sequential
// execution).
func (h *hullState3) addCone(q int32, vis []int32, ridges []ridge, base, off int32) {
	n := int32(len(ridges))
	// Facet k is (u, w, q), CCW from outside because the ridge (u -> w) was
	// CCW in a visible facet and q is outside. Across (u, w) lies the
	// boundary facet, across (w, q) the next ridge's facet, and across
	// (q, u) the previous one's.
	type coneFacet struct {
		plane  geom.Plane3
		height float64 // of the facet's far point
	}
	var small [16]coneFacet
	cone := small[:min(n, 16)]
	if n > 16 {
		cone = make([]coneFacet, n)
	}
	for k, r := range ridges {
		fi := base + int32(k)
		h.facets[fi] = facet{
			v:   [3]int32{r.u, r.w, q},
			nbr: [3]int32{r.boundary, base + (int32(k)+1)%n, base + (int32(k)+n-1)%n},
			far: -1,
		}
		h.facets[r.boundary].nbr[r.slot] = fi
		cone[k].plane = h.plane(&h.facets[fi])
	}
	// Redistribute the dead facets' points: each goes to the first cone
	// facet it is above, one plane test per pair, and each cone facet keeps
	// its furthest point. The lists are laid out once their sizes are
	// known, and the seeds say which list a point joins.
	h.seed[q] = seedOnHull
	for _, vf := range vis {
		for _, p := range h.ptsOf(&h.facets[vf]) {
			if p == q {
				continue
			}
			h.seed[p] = seedInside
			x := h.pts.At(int(p))
			for k := range cone {
				c := &cone[k]
				if d := c.plane.Side(x); d > 0 {
					f := &h.facets[base+int32(k)]
					if further(p, d, f.far, c.height) {
						f.far, c.height = p, d
					}
					f.n++
					h.seed[p] = base + int32(k)
					break
				}
			}
		}
	}
	for k := range cone {
		f := &h.facets[base+int32(k)]
		f.lo = off
		off += f.n
		f.n = 0
	}
	for _, vf := range vis {
		for _, p := range h.ptsOf(&h.facets[vf]) {
			if fi := h.seed[p]; fi >= base && fi < base+n {
				f := &h.facets[fi]
				h.lists[f.lo+f.n] = p
				f.n++
			}
		}
		h.facets[vf].n = 0 // its list is garbage now
	}
	h.stats.AddKilled(int64(len(vis)))
}

// reserveLists returns the offset of need new entries at the end of the
// list arena. When the arena is full, the lists still in use (a consumed
// facet's n is 0) first move to the front of the spare buffer, which has
// room for twice them, and the two buffers swap: the arena stays within a
// small multiple of the points still assigned, and each entry is copied
// O(1) times amortized.
func (h *hullState3) reserveLists(need int) int32 {
	if len(h.lists)+need > cap(h.lists) {
		live := need
		for fi := range h.facets {
			live += int(h.facets[fi].n)
		}
		buf := h.spare[:0]
		if cap(buf) < 2*live {
			buf = make([]int32, 0, 2*live)
		}
		for fi := range h.facets {
			f := &h.facets[fi]
			lo := len(buf)
			buf = append(buf, h.ptsOf(f)...)
			f.lo = int32(lo)
		}
		h.lists, h.spare = buf, h.lists
	}
	off := len(h.lists)
	h.lists = h.lists[:off+need]
	return int32(off)
}

// moved is the number of points a winner q with visible set vis hands on
// to its cone: all the visible facets' points but q.
func (h *hullState3) moved(vis []int32) int32 {
	m := int32(-1)
	for _, f := range vis {
		m += h.facets[f].n
	}
	return m
}

// growFacets appends n facet slots and their reservation slots. Capacity
// doubles, so a run allocates about twice its final facet array in all
// (append slows to 1.25× steps for large slices).
func (h *hullState3) growFacets(n int) {
	if len(h.facets)+n > cap(h.facets) {
		h.facets = slices.Grow(h.facets, max(n, len(h.facets)))
	}
	h.facets = h.facets[:len(h.facets)+n]
	h.res.Grow(len(h.facets))
}

// extract returns the alive facets as vertex triples.
func (h *hullState3) extract() [][3]int32 {
	var out [][3]int32
	for fi := range h.facets {
		if !h.facets[fi].dead {
			out = append(out, h.facets[fi].v)
		}
	}
	return out
}

// Vertices returns the sorted unique vertex ids of a facet list.
func Vertices(facets [][3]int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, f := range facets {
		for _, v := range f {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	parlay.Sort(out, func(a, b int32) bool { return a < b })
	return out
}
