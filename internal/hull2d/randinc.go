package hull2d

import (
	"pargeo/internal/core"
	"pargeo/internal/geom"
	"pargeo/internal/parlay"
)

// This file implements the paper's reservation-based parallel incremental
// convex hull (§3, Fig. 5) specialized to R², where facets are directed
// hull edges and the horizon of a visible point is the pair of vertices
// bounding its contiguous chain of visible edges.
//
// Each round:
//
//	1. select a batch Q of visible points (a prefix of the random
//	   permutation for RandInc; the furthest point per facet for the
//	   quickhull flavor);
//	2. every q in Q walks its chain of visible edges (from the one visible
//	   edge stored with q — the paper's "store one arbitrary visible facet
//	   per point and BFS when needed") and reserves each edge by WriteMin
//	   of q's priority;
//	3. q succeeds if it still holds all its reservations, and once every
//	   point has checked, every point resets the slots it reserved;
//	4. winners replace their chains with two new edges through q and
//	   redistribute the points stored on the dead edges onto the new ones
//	   (or drop them as interior). For RandInc, core.SpeculativeFor retries
//	   the losers that are still visible in the next round.
//
// Winners mutate disjoint edge sets, so the commit phase is lock-free; the
// only sequential step is re-linking the O(|Q|) boundary pointers between
// adjacent winners.

type edge2 struct {
	a, b       int32 // directed edge a->b; hull is CCW, outside is the right side
	next, prev int32
	pts        []int32 // visible points assigned to this edge
	dead       bool
}

const (
	seedInside int32 = -1 // point determined interior
	seedOnHull int32 = -2 // point became a hull vertex
)

type hullState2 struct {
	pts   geom.Points
	edges []edge2
	res   *core.Reservations
	seed  []int32 // per point: visible edge id, or seedInside/seedOnHull
	prio  []int64 // per point: reservation priority (smaller wins)
	alive []int32 // alive edge ids (maintained incrementally)
	stats *core.Stats
}

// visible reports whether point p is strictly outside edge e.
func (h *hullState2) visible(e *edge2, p int32) bool {
	return geom.Cross2D(h.pts.At(int(e.a)), h.pts.At(int(e.b)), h.pts.At(int(p))) < 0
}

// RandInc computes the hull with the reservation-based parallel randomized
// incremental algorithm.
func RandInc(pts geom.Points, seed uint64) []int32 {
	return RandIncStats(pts, seed, nil)
}

// RandIncStats is RandInc with optional instrumentation for the
// reservation-overhead experiment.
func RandIncStats(pts geom.Points, seedVal uint64, stats *core.Stats) []int32 {
	n := pts.Len()
	if n <= 3 {
		return MonotoneChain(pts)
	}
	h, ok := newHullState2(pts, stats)
	if !ok {
		return MonotoneChain(pts) // degenerate input (collinear)
	}
	// Random priorities via a random permutation: prio[p] = position.
	perm := parlay.RandomPermutation(n, seedVal)
	parlay.For(n, 0, func(k int) { h.prio[perm[k]] = int64(k) })
	core.SpeculativeFor(perm, core.BatchSize(8), func(q int32) bool { return h.seed[q] < 0 }, h.round)
	return h.extract()
}

// ReservationQuickhull computes the hull with the reservation-based
// quickhull flavor: each round processes, for up to c·numProc facets, the
// point furthest from that facet.
func ReservationQuickhull(pts geom.Points, stats *core.Stats) []int32 {
	n := pts.Len()
	if n <= 3 {
		return MonotoneChain(pts)
	}
	h, ok := newHullState2(pts, stats)
	if !ok {
		return MonotoneChain(pts)
	}
	// Priorities: point index (any fixed total order works).
	parlay.For(n, 0, func(i int) { h.prio[i] = int64(i) })
	batch := core.BatchSize(8)
	for {
		q := h.furthestBatch(batch)
		if len(q) == 0 {
			break
		}
		h.round(q)
	}
	return h.extract()
}

// newHullState2 builds the initial triangle and assigns every point to one
// visible edge. ok is false when the input is degenerate (all collinear).
func newHullState2(pts geom.Points, stats *core.Stats) (*hullState2, bool) {
	n := pts.Len()
	idx := make([]int32, n)
	parlay.For(n, 0, func(i int) { idx[i] = int32(i) })
	lo, hi := extremeX(pts, idx)
	if lo == hi {
		return nil, false
	}
	pa, pb := pts.At(int(lo)), pts.At(int(hi))
	fi := parlay.MaxIndexFloat(n, 0, func(i int) float64 {
		c := geom.Cross2D(pa, pb, pts.At(i))
		if c < 0 {
			return -c
		}
		return c
	})
	far := int32(fi)
	if geom.Cross2D(pa, pb, pts.At(fi)) == 0 {
		return nil, false // everything collinear
	}
	// Orient the triangle CCW.
	v0, v1, v2 := lo, hi, far
	if geom.Cross2D(pts.At(int(v0)), pts.At(int(v1)), pts.At(int(v2))) < 0 {
		v1, v2 = v2, v1
	}
	h := &hullState2{
		pts:   pts,
		seed:  make([]int32, n),
		prio:  make([]int64, n),
		stats: stats,
	}
	h.edges = []edge2{
		{a: v0, b: v1, next: 1, prev: 2},
		{a: v1, b: v2, next: 2, prev: 0},
		{a: v2, b: v0, next: 0, prev: 1},
	}
	h.res = core.NewReservations(3)
	h.alive = []int32{0, 1, 2}
	h.stats.AddAlloc(3)
	// Assign every point to its first visible initial edge.
	parlay.For(n, 512, func(i int) {
		p := int32(i)
		if p == v0 || p == v1 || p == v2 {
			h.seed[i] = seedOnHull
			return
		}
		h.seed[i] = seedInside
		for e := int32(0); e < 3; e++ {
			if h.visible(&h.edges[e], p) {
				h.seed[i] = e
				break
			}
		}
	})
	// Build per-edge point lists (sequential over 3 edges, parallel inside
	// via pack).
	for e := int32(0); e < 3; e++ {
		e := e
		h.edges[e].pts = parlay.Pack(idx, func(i int) bool { return h.seed[i] == e })
	}
	return h, true
}

// furthestBatch returns, for up to r alive edges with assigned points, the
// point furthest outside that edge. Edges with the most points go first so
// rounds prune aggressively.
func (h *hullState2) furthestBatch(r int) []int32 {
	nonEmpty := parlay.Pack(h.alive, func(i int) bool { return len(h.edges[h.alive[i]].pts) > 0 })
	if len(nonEmpty) == 0 {
		return nil
	}
	if len(nonEmpty) > r {
		parlay.Sort(nonEmpty, func(x, y int32) bool {
			lx, ly := len(h.edges[x].pts), len(h.edges[y].pts)
			if lx != ly {
				return lx > ly
			}
			return x < y
		})
		nonEmpty = nonEmpty[:r]
	}
	out := make([]int32, len(nonEmpty))
	parlay.For(len(nonEmpty), 4, func(k int) {
		e := &h.edges[nonEmpty[k]]
		pa, pb := h.pts.At(int(e.a)), h.pts.At(int(e.b))
		best, bestD := e.pts[0], 0.0
		for _, p := range e.pts {
			if d := -geom.Cross2D(pa, pb, h.pts.At(int(p))); d > bestD || (d == bestD && p < best) {
				best, bestD = p, d
			}
		}
		out[k] = best
	})
	return out
}

// chainOf walks from q's seed edge in both directions, collecting the
// maximal contiguous run of edges visible to q, plus the two non-visible
// boundary edges on either side of the horizon. The boundary edges are
// reserved too: adding q rewires their linked-list pointers, so two points
// whose horizons touch must not commit in the same round (otherwise an old
// vertex between them could survive as a reflex vertex). Reserving the
// boundary serializes exactly those adjacent insertions while keeping
// points with disjoint neighborhoods fully parallel.
func (h *hullState2) chainOf(q int32) (chain []int32, outerPrev, outerNext int32) {
	start := h.seed[q]
	chain = []int32{start}
	guard := len(h.alive) + 4
	e := h.edges[start].prev
	for ; e != start && h.visible(&h.edges[e], q); e = h.edges[e].prev {
		chain = append(chain, 0)
		copy(chain[1:], chain)
		chain[0] = e
		if guard--; guard < 0 {
			break
		}
	}
	outerPrev = e
	guard = len(h.alive) + 4
	e = h.edges[start].next
	for ; e != chain[0] && h.visible(&h.edges[e], q); e = h.edges[e].next {
		chain = append(chain, e)
		if guard--; guard < 0 {
			break
		}
	}
	outerNext = e
	return chain, outerPrev, outerNext
}

type winner2 struct {
	q                    int32
	chain                []int32
	newE1, newE2         int32
	outerPrev, outerNext int32
}

// round executes one reserve/check/commit round for batch q.
func (h *hullState2) round(batch []int32) {
	h.stats.AddRound()
	h.stats.AddPoints(int64(len(batch)))
	chains := make([][]int32, len(batch))
	bounds := make([][2]int32, len(batch))
	// Phase 1: reservation (visible chain + horizon boundary).
	parlay.For(len(batch), 1, func(k int) {
		q := batch[k]
		ch, op, on := h.chainOf(q)
		chains[k] = ch
		bounds[k] = [2]int32{op, on}
		h.stats.AddFacets(int64(len(ch)))
		h.stats.AddReservations(int64(len(ch)) + 2)
		h.res.ReserveSlots(h.prio[q], ch, bounds[k][:])
	})
	// Phase 2: check, then reset every reserved slot: the commit does not
	// read them.
	success := make([]bool, len(batch))
	parlay.For(len(batch), 1, func(k int) {
		ok := h.res.HoldsSlots(h.prio[batch[k]], chains[k], bounds[k][:])
		success[k] = ok
		if ok {
			h.stats.AddSuccess()
		} else {
			h.stats.AddFailure()
		}
	})
	parlay.For(len(batch), 1, func(k int) { h.res.ReleaseSlots(chains[k], bounds[k][:]) })
	// Phase 3: commit winners. Allocate 2 new edges per winner.
	winnerIdx := parlay.PackIndex(len(batch), func(k int) bool { return success[k] })
	base := int32(len(h.edges))
	h.edges = append(h.edges, make([]edge2, 2*len(winnerIdx))...)
	h.res.Grow(len(h.edges))
	h.stats.AddAlloc(int64(2 * len(winnerIdx)))
	winners := make([]winner2, len(winnerIdx))
	parlay.For(len(winnerIdx), 1, func(w int) {
		k := int(winnerIdx[w])
		q := batch[k]
		ch := chains[k]
		first, last := &h.edges[ch[0]], &h.edges[ch[len(ch)-1]]
		e1, e2 := base+int32(2*w), base+int32(2*w)+1
		h.edges[e1] = edge2{a: first.a, b: q, next: e2}
		h.edges[e2] = edge2{a: q, b: last.b, prev: e1}
		winners[w] = winner2{q: q, chain: ch, newE1: e1, newE2: e2,
			outerPrev: first.prev, outerNext: last.next}
		h.seed[q] = seedOnHull
		// Kill the chain and redistribute its points.
		var gathered []int32
		for _, e := range ch {
			h.edges[e].dead = true
			gathered = append(gathered, h.edges[e].pts...)
			h.edges[e].pts = nil
		}
		h.stats.AddKilled(int64(len(ch)))
		ne1, ne2 := &h.edges[e1], &h.edges[e2]
		for _, p := range gathered {
			if p == q {
				continue
			}
			switch {
			case h.visible(ne1, p):
				h.seed[p] = e1
				ne1.pts = append(ne1.pts, p)
			case h.visible(ne2, p):
				h.seed[p] = e2
				ne2.pts = append(ne2.pts, p)
			default:
				h.seed[p] = seedInside
			}
		}
	})
	// Sequential boundary re-linking between winners and surviving edges.
	// endAt[v]: the new edge ending at vertex v.
	endAt := make(map[int32]int32, len(winners))
	startAt := make(map[int32]int32, len(winners))
	for _, w := range winners {
		endAt[h.edges[w.newE2].b] = w.newE2
		startAt[h.edges[w.newE1].a] = w.newE1
	}
	for _, w := range winners {
		if !h.edges[w.outerPrev].dead {
			h.edges[w.outerPrev].next = w.newE1
			h.edges[w.newE1].prev = w.outerPrev
		} else {
			b := endAt[h.edges[w.newE1].a]
			h.edges[b].next = w.newE1
			h.edges[w.newE1].prev = b
		}
		if !h.edges[w.outerNext].dead {
			h.edges[w.outerNext].prev = w.newE2
			h.edges[w.newE2].next = w.outerNext
		} else {
			b := startAt[h.edges[w.newE2].b]
			h.edges[b].prev = w.newE2
			h.edges[w.newE2].next = b
		}
	}
	newAlive := make([]int32, 0, 2*len(winners))
	for _, w := range winners {
		newAlive = append(newAlive, w.newE1, w.newE2)
	}
	h.alive = append(parlay.Pack(h.alive, func(i int) bool { return !h.edges[h.alive[i]].dead }), newAlive...)
}

// extract walks the linked hull and returns the CCW vertex cycle.
func (h *hullState2) extract() []int32 {
	if len(h.alive) == 0 {
		return nil
	}
	start := h.alive[0]
	out := []int32{h.edges[start].a}
	for e := h.edges[start].next; e != start; e = h.edges[e].next {
		out = append(out, h.edges[e].a)
	}
	return canonical(out, h.pts)
}
