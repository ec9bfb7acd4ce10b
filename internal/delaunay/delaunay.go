// Package delaunay implements a 2D Delaunay triangulation — the substrate
// behind ParGeo's Delaunay/Gabriel/β-skeleton graph generators (Module 3).
//
// The construction is Bowyer–Watson (randomized incremental): each inserted
// point's cavity (the triangles whose circumcircle contains it) is carved
// out and re-triangulated as a fan around the point. Point location uses
// the same device as the paper's convex hull: every un-inserted point is
// stored with the triangle that contains it, and cavities are found by a
// local breadth-first search from that triangle.
//
// Parallel batch insertion applies the paper's reservation technique
// (§3, Fig. 5) to the triangulation: a batch of points computes cavities
// in parallel against the current triangulation, each point reserves its
// cavity triangles and the triangles adjacent to the cavity boundary with
// a WriteMin priority write, and the points that hold all their
// reservations retriangulate their (disjoint) cavities in parallel. This
// demonstrates the technique's generality beyond convex hulls.
package delaunay

import (
	"math"

	"pargeo/internal/core"
	"pargeo/internal/geom"
	"pargeo/internal/parlay"
)

const (
	seedDone int32 = -1 // point inserted or dropped (duplicate/degenerate)
)

type tri struct {
	v    [3]int32
	nbr  [3]int32 // across directed edge v[i] -> v[(i+1)%3]; -1 = outer face
	pts  []int32  // un-inserted points located inside this triangle
	dead bool
}

// Triangulation is the result: triangles over the input points plus three
// synthetic super-triangle vertices with ids n, n+1, n+2 (excluded from
// Triangles / Edges output).
type Triangulation struct {
	Pts  geom.Points // input points + 3 super vertices appended
	N    int         // number of real points
	tris []tri
	res  *core.Reservations
	seed []int32 // per real point: containing triangle, or seedDone
	prio []int64
}

// inCircum reports whether point p is strictly inside t's circumcircle.
func (dt *Triangulation) inCircum(t *tri, p int32) bool {
	return geom.InCircle(
		dt.Pts.At(int(t.v[0])), dt.Pts.At(int(t.v[1])), dt.Pts.At(int(t.v[2])),
		dt.Pts.At(int(p))) > 0
}

// contains reports whether point p lies inside (or on the border of)
// triangle t.
func (dt *Triangulation) contains(t *tri, p int32) bool {
	pc := dt.Pts.At(int(p))
	for e := 0; e < 3; e++ {
		if geom.Orient2D(dt.Pts.At(int(t.v[e])), dt.Pts.At(int(t.v[(e+1)%3])), pc) < 0 {
			return false
		}
	}
	return true
}

// New prepares a triangulation over pts: builds the super triangle and
// locates every point in it.
func New(pts geom.Points) *Triangulation {
	n := pts.Len()
	box := geom.BoundingBoxAll(pts)
	cx := (box.Min[0] + box.Max[0]) / 2
	cy := (box.Min[1] + box.Max[1]) / 2
	// The super vertices must be far enough away that no real point's
	// circumcircle decision is affected by them; too-close super vertices
	// leave hull-adjacent points connected to the super triangle, which
	// shows up as slivers missing from the hull after removal. 1e5x the
	// diameter keeps the artifact region negligible while losing only ~5
	// of the 16 significant digits in the in-circle determinants.
	r := 1e5*math.Sqrt(box.SqDiameter()) + 1
	// Buffer with room for the three super vertices.
	all := geom.NewPoints(n+3, 2)
	copy(all.Data, pts.Data)
	all.Set(n, []float64{cx - 2*r, cy - r})
	all.Set(n+1, []float64{cx + 2*r, cy - r})
	all.Set(n+2, []float64{cx, cy + 2*r})
	dt := &Triangulation{
		Pts:  all,
		N:    n,
		seed: make([]int32, n),
		prio: make([]int64, n),
		res:  core.NewReservations(1),
		tris: []tri{{v: [3]int32{int32(n), int32(n + 1), int32(n + 2)}, nbr: [3]int32{-1, -1, -1}}},
	}
	idx := make([]int32, n)
	parlay.For(n, 0, func(i int) { idx[i] = int32(i) })
	dt.tris[0].pts = idx
	return dt
}

// cavityOf BFSes from q's seed triangle, returning the triangles whose
// circumcircle contains q and the boundary triangles adjacent to the
// cavity (which get their adjacency rewired by the insertion).
func (dt *Triangulation) cavityOf(q int32) (cavity, boundary []int32) {
	start := dt.seed[q]
	if !dt.inCircum(&dt.tris[start], q) {
		return nil, nil // duplicate / filtered-degenerate point
	}
	visited := map[int32]bool{start: true}
	cavity = append(cavity, start)
	seenB := map[int32]bool{}
	for head := 0; head < len(cavity); head++ {
		t := &dt.tris[cavity[head]]
		for e := 0; e < 3; e++ {
			nb := t.nbr[e]
			if nb < 0 || visited[nb] {
				continue
			}
			visited[nb] = true
			if dt.inCircum(&dt.tris[nb], q) {
				cavity = append(cavity, nb)
			} else if !seenB[nb] {
				seenB[nb] = true
				boundary = append(boundary, nb)
			}
		}
	}
	return cavity, boundary
}

// cavityRidge is one directed boundary edge of a cavity.
type cavityRidge struct {
	u, w    int32
	outside int32 // triangle across the edge (-1 for the outer face)
	slot    int32 // its edge slot pointing back (undefined when outside<0)
}

// ridgesOf extracts the cavity's closed boundary loop.
func (dt *Triangulation) ridgesOf(cavity []int32, inCav func(int32) bool) []cavityRidge {
	var out []cavityRidge
	for _, ti := range cavity {
		t := &dt.tris[ti]
		for e := 0; e < 3; e++ {
			nb := t.nbr[e]
			if nb >= 0 && inCav(nb) {
				continue
			}
			u, w := t.v[e], t.v[(e+1)%3]
			r := cavityRidge{u: u, w: w, outside: nb, slot: -1}
			if nb >= 0 {
				g := &dt.tris[nb]
				for s := 0; s < 3; s++ {
					if g.v[s] == w && g.v[(s+1)%3] == u {
						r.slot = int32(s)
						break
					}
				}
			}
			out = append(out, r)
		}
	}
	return out
}

// retriangulate replaces the cavity with a fan of new triangles around q.
// New triangle ids are preallocated as [base, base+len(ridges)).
func (dt *Triangulation) retriangulate(q int32, cavity []int32, ridges []cavityRidge, base int32) {
	startAt := make(map[int32]int32, len(ridges))
	for k, r := range ridges {
		startAt[r.u] = base + int32(k)
	}
	if len(startAt) != len(ridges) {
		panic("delaunay: malformed cavity boundary loop")
	}
	endAt := make(map[int32]int32, len(ridges))
	for k, r := range ridges {
		endAt[r.w] = base + int32(k)
	}
	for k, r := range ridges {
		ti := base + int32(k)
		nt := tri{v: [3]int32{r.u, r.w, q}}
		nt.nbr[0] = r.outside
		nt.nbr[1] = startAt[r.w] // across (w, q): the fan triangle starting at w
		nt.nbr[2] = endAt[r.u]   // across (q, u): the fan triangle ending at u
		dt.tris[ti] = nt
		if r.outside >= 0 {
			dt.tris[r.outside].nbr[r.slot] = ti
		}
	}
	// Kill the cavity and redistribute its points over the fan.
	var gathered []int32
	for _, ti := range cavity {
		dt.tris[ti].dead = true
		gathered = append(gathered, dt.tris[ti].pts...)
		dt.tris[ti].pts = nil
	}
	dt.seed[q] = seedDone
	for _, p := range gathered {
		if p == q {
			continue
		}
		dt.seed[p] = seedDone
		for k := range ridges {
			ti := base + int32(k)
			if dt.contains(&dt.tris[ti], p) {
				dt.seed[p] = ti
				dt.tris[ti].pts = append(dt.tris[ti].pts, p)
				break
			}
		}
		// A point contained by no fan triangle coincides with q (or is a
		// filtered degenerate); it stays seedDone, matching Bowyer–Watson's
		// treatment of duplicates.
	}
}

// insertOne performs a single sequential insertion.
func (dt *Triangulation) insertOne(q int32) {
	cavity, _ := dt.cavityOf(q)
	if cavity == nil {
		dt.seed[q] = seedDone
		return
	}
	isCav := make(map[int32]bool, len(cavity))
	for _, t := range cavity {
		isCav[t] = true
	}
	ridges := dt.ridgesOf(cavity, func(t int32) bool { return isCav[t] })
	base := int32(len(dt.tris))
	dt.tris = append(dt.tris, make([]tri, len(ridges))...)
	dt.res.Grow(len(dt.tris))
	dt.retriangulate(q, cavity, ridges, base)
}

// Sequential triangulates with one random insertion at a time.
func Sequential(pts geom.Points, seed uint64) *Triangulation {
	dt := New(pts)
	perm := parlay.RandomPermutation(pts.Len(), seed)
	for _, q := range perm {
		if dt.seed[q] != seedDone {
			dt.insertOne(q)
		}
	}
	return dt
}

// Parallel triangulates with reservation-based batch insertion rounds.
func Parallel(pts geom.Points, seed uint64) *Triangulation {
	dt := New(pts)
	n := pts.Len()
	perm := parlay.RandomPermutation(n, seed)
	parlay.For(n, 0, func(k int) { dt.prio[perm[k]] = int64(k) })
	core.SpeculativeFor(perm, core.BatchSize(8), func(q int32) bool { return dt.seed[q] == seedDone }, dt.round)
	return dt
}

// round is one reserve/check/commit batch round.
func (dt *Triangulation) round(batch []int32) {
	type info struct{ cavity, boundary []int32 }
	infos := make([]info, len(batch))
	parlay.For(len(batch), 1, func(k int) {
		in := &infos[k]
		in.cavity, in.boundary = dt.cavityOf(batch[k])
		dt.res.ReserveSlots(dt.prio[batch[k]], in.cavity, in.boundary)
	})
	success := make([]bool, len(batch))
	parlay.For(len(batch), 1, func(k int) {
		q := batch[k]
		if infos[k].cavity == nil {
			dt.seed[q] = seedDone // duplicate: drop
			return
		}
		success[k] = dt.res.HoldsSlots(dt.prio[q], infos[k].cavity, infos[k].boundary)
	})
	winnerIdx := parlay.PackIndex(len(batch), func(k int) bool { return success[k] })
	ridgesOf := make([][]cavityRidge, len(winnerIdx))
	parlay.For(len(winnerIdx), 1, func(w int) {
		in := infos[winnerIdx[w]]
		isCav := make(map[int32]bool, len(in.cavity))
		for _, t := range in.cavity {
			isCav[t] = true
		}
		ridgesOf[w] = dt.ridgesOf(in.cavity, func(t int32) bool { return isCav[t] })
	})
	counts := make([]int, len(winnerIdx))
	for w := range counts {
		counts[w] = len(ridgesOf[w])
	}
	totalNew := parlay.ScanInts(counts)
	base := int32(len(dt.tris))
	dt.tris = append(dt.tris, make([]tri, totalNew)...)
	dt.res.Grow(len(dt.tris))
	parlay.For(len(winnerIdx), 1, func(w int) {
		k := int(winnerIdx[w])
		dt.retriangulate(batch[k], infos[k].cavity, ridgesOf[w], base+int32(counts[w]))
	})
	parlay.For(len(batch), 1, func(k int) { dt.res.ReleaseSlots(infos[k].cavity, infos[k].boundary) })
}

// Triangles returns the live triangles not touching the super vertices.
func (dt *Triangulation) Triangles() [][3]int32 {
	n32 := int32(dt.N)
	var out [][3]int32
	for i := range dt.tris {
		t := &dt.tris[i]
		if t.dead || t.v[0] >= n32 || t.v[1] >= n32 || t.v[2] >= n32 {
			continue
		}
		out = append(out, t.v)
	}
	return out
}

// Edge is an undirected Delaunay edge (U < V).
type Edge struct{ U, V int32 }

// Edges returns the unique undirected edges among real points.
func (dt *Triangulation) Edges() []Edge {
	seen := map[Edge]bool{}
	var out []Edge
	for _, t := range dt.Triangles() {
		for e := 0; e < 3; e++ {
			u, v := t[e], t[(e+1)%3]
			if u > v {
				u, v = v, u
			}
			k := Edge{u, v}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}
