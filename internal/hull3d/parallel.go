package hull3d

import (
	"pargeo/internal/core"
	"pargeo/internal/geom"
	"pargeo/internal/parlay"
)

// This file implements the paper's reservation-based parallel incremental
// convex hull in R³ (§3, Fig. 5). Per round:
//
//  1. select a batch of visible points (for RandInc, the first c·numProc
//     visible points of the random permutation, fed by core.SpeculativeFor;
//     for the quickhull flavor, the furthest points of the fullest facets
//     whose neighborhoods do not touch — see batchQueue — each memoized
//     when its facet's list was built);
//  2. each batch point BFSes its visible facet set from its one stored
//     facet and reserves — via WriteMin of its priority — every visible
//     facet *and* every horizon-adjacent boundary facet (boundary facets
//     have their neighbor pointers rewired by the insertion, so two points
//     with touching horizons must not commit in the same round; this also
//     rules out the reflex artifacts Stein et al.'s GPU quickhull suffers
//     from, discussed in Appendix A);
//  3. points that hold all their reservations win, and trace their horizon;
//  4. winners delete their visible facets, build the horizon cone, and
//     redistribute the points stored on the dead facets — all in parallel,
//     with no locks, because winners' facet neighborhoods are disjoint —
//     and every point resets the slots it reserved.
//
// Rounds repeat until no visible points remain. The smallest-priority
// point in every batch always wins all of its writes, so at least one
// point commits per round and the algorithm terminates.
//
// A phase that forks runs one scheduler task per batch point, so the highly
// variable per-point cost (a point may see one facet or hundreds)
// load-balances by work stealing. Phase 1 always forks: its work is known
// only once its searches have run. Phases 2 and 3 fork only when the work
// the round has measured outside their largest task reaches some 70 µs:
// 1 024 facet visits (a plane test, a membership scan and a reservation
// each, about 70 ns) or 16 384 plane tests of redistributions (about 5 ns
// each). On a 2-vCPU KVM guest (Xeon, Go 1.24) forking them every round
// made the quickhull over the paper-batch input's pseudohull survivors
// about 11 % slower at two workers, while any cutoff from 256 visits and
// 4 096 tests up to never forking measured alike.
const (
	forkVisits = 1024  // phase 2: facets the batch's searches visited
	forkTests  = 16384 // phase 3: plane tests of the redistributions
)

// visInfo is one batch point's state in a round.
type visInfo struct {
	vis      []int32
	boundary []int32
	won      bool
	ridges   []ridge // a winner's horizon
	base     int32   // the first id of a winner's cone facets
	off      int32   // where a winner's cone lists start in the arena
}

// round executes one reserve/check/commit round for the given batch.
func (h *hullState3) round(batch []int32) {
	h.stats.AddRound()
	h.stats.AddPoints(int64(len(batch)))
	if len(h.infos) < len(batch) {
		h.infos = append(h.infos, make([]visInfo, len(batch)-len(h.infos))...)
	}
	infos := h.infos[:len(batch)]
	// Phase 1: BFS + reservation.
	parlay.For(len(batch), 1, func(k int) {
		q, info := batch[k], &infos[k]
		info.vis, info.boundary = h.visibleSet(q, info.vis, info.boundary)
		info.won, info.ridges = false, info.ridges[:0]
		h.stats.AddFacets(int64(len(info.vis)))
		h.stats.AddReservations(int64(len(info.vis) + len(info.boundary)))
		h.res.ReserveSlots(h.prio[q], info.vis, info.boundary)
	})
	visits, most := 0, 0
	for k := range infos {
		v := len(infos[k].vis) + len(infos[k].boundary)
		visits += v
		most = max(most, v)
	}
	// Phase 2: check, and a winner's horizon. Nothing mutates the hull
	// until every point has checked, so a winner reads its own facets.
	// Grain 1 forks a task per point; grain len(batch) runs inline.
	g := len(batch)
	if visits-most >= forkVisits {
		g = 1
	}
	parlay.For(len(batch), g, func(k int) {
		info := &infos[k]
		if !h.res.HoldsSlots(h.prio[batch[k]], info.vis, info.boundary) {
			h.stats.AddFailure()
			return
		}
		h.stats.AddSuccess()
		info.won = true
		info.ridges = h.horizonOf(info.vis, info.ridges)
	})
	// Horizon and list sizes are data dependent: a scan gives every winner
	// its contiguous range of new facet ids and of list entries. A winner's
	// redistribution tests each point it moves against at most every cone
	// facet.
	nextFacet, moved := int32(len(h.facets)), int32(0)
	tests, most := 0, 0
	for k := range infos {
		info := &infos[k]
		if !info.won {
			continue
		}
		m := h.moved(info.vis)
		info.base, info.off = nextFacet, moved
		nextFacet += int32(len(info.ridges))
		moved += m
		t := int(m) * len(info.ridges)
		tests += t
		most = max(most, t)
	}
	h.stats.AddAlloc(int64(int(nextFacet) - len(h.facets)))
	h.growFacets(int(nextFacet) - len(h.facets))
	off := h.reserveLists(int(moved))
	for k := range infos {
		infos[k].off += off
	}
	// Phase 3: commit, and reset every slot the point reserved. Every point
	// has checked, winners' neighborhoods are disjoint, and the slot of a
	// facet that just died is never read again.
	g = len(batch)
	if tests-most >= forkTests {
		g = 1
	}
	parlay.For(len(batch), g, func(k int) {
		info := &infos[k]
		if info.won {
			h.addCone(batch[k], info.vis, info.ridges, info.base, info.off)
		}
		h.res.ReleaseSlots(info.vis, info.boundary)
	})
}

// RandInc computes the hull with the reservation-based parallel randomized
// incremental algorithm (§3 + Appendix A: per round, a prefix of up to
// c·numProc visible points of the random permutation attempts insertion,
// c = 8).
func RandInc(pts geom.Points, seed uint64) [][3]int32 {
	return RandIncStats(pts, seed, nil)
}

// RandIncStats is RandInc with instrumentation for Fig. 12.
func RandIncStats(pts geom.Points, seed uint64, stats *core.Stats) [][3]int32 {
	n := pts.Len()
	h, ok := newHullState3(pts, stats)
	if !ok {
		return nil
	}
	perm := parlay.RandomPermutation(n, seed)
	h.prio = make([]int64, n)
	parlay.For(n, 0, func(k int) { h.prio[perm[k]] = int64(k) })
	core.SpeculativeFor(perm, core.BatchSize(8), func(q int32) bool { return h.seed[q] < 0 }, h.round)
	return h.extract()
}

// Quickhull computes the hull with the reservation-based parallel quickhull
// (§3 + Appendix A: per round, the points furthest from up to c·numProc
// facets attempt insertion, c = 8; see batchQueue for which). When
// the number of facets is low it processes a single point per round, chosen
// from the facet with the most visible points (Appendix B's low-facet-count
// optimization, which maximizes the volume added per step while parallelism
// is unavailable anyway).
func Quickhull(pts geom.Points) [][3]int32 {
	return QuickhullStats(pts, nil)
}

// QuickhullStats is Quickhull with instrumentation for Fig. 12.
func QuickhullStats(pts geom.Points, stats *core.Stats) [][3]int32 {
	h, ok := newHullState3(pts, stats)
	if !ok {
		return nil
	}
	h.prio = make([]int64, pts.Len())
	parlay.For(len(h.prio), 0, func(i int) { h.prio[i] = int64(i) })
	var bq batchQueue
	bq.pushNonEmpty(h, 0, len(h.facets))
	batch := core.BatchSize(8)
	var q []int32
	for {
		sel := bq.next(h, batch)
		if len(sel) == 0 {
			break
		}
		q = q[:0]
		for _, fi := range sel {
			q = append(q, h.facets[fi].far)
		}
		before := len(h.facets)
		h.round(q)
		for _, fi := range sel {
			if !h.facets[fi].dead {
				bq.push(h, fi)
			}
		}
		bq.pushNonEmpty(h, before, len(h.facets))
	}
	return h.extract()
}

// minFacetsForBatch is the candidate-facet count below which a round
// inserts a single point (Appendix B's low-facet-count optimization).
const minFacetsForBatch = 4

// batchQueue picks the quickhull's batches. It is a max-heap of the facets
// that have points, fullest first and ties to the smaller id. A facet's
// point list is fixed from its creation to its death, so its key is too; a
// facet that dies while queued is dropped when it surfaces.
//
// The fullest facets of a hull tend to be neighbors, and neighbors' apexes
// see overlapping facet sets, so most of them would lose their
// reservations. A batch therefore takes a facet only if it does not touch
// the 2-ring (the facet, its neighbors and theirs) of a facet already in
// the batch; the facets it passes over stay queued for a later round.
type batchQueue struct {
	heap    []queuedFacet
	claim   []int32 // per facet: the last batch whose 2-ring covered it
	batch   int32
	sel     []int32
	skipped []int32
}

type queuedFacet struct{ n, id int32 }

func (a queuedFacet) before(b queuedFacet) bool {
	return a.n > b.n || (a.n == b.n && a.id < b.id)
}

func (bq *batchQueue) push(h *hullState3, fi int32) {
	q := append(bq.heap, queuedFacet{h.facets[fi].n, fi})
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if !q[i].before(q[up]) {
			break
		}
		q[i], q[up] = q[up], q[i]
		i = up
	}
	bq.heap = q
}

func (bq *batchQueue) pop() int32 {
	q := bq.heap
	top := q[0].id
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	bq.heap = q
	return top
}

// pushNonEmpty queues the facets in [lo, hi) that have points.
func (bq *batchQueue) pushNonEmpty(h *hullState3, lo, hi int) {
	for fi := lo; fi < hi; fi++ {
		if h.facets[fi].n > 0 {
			bq.push(h, int32(fi))
		}
	}
}

// next takes the next batch of at most r facets off the queue, or only the
// fullest facet when fewer than minFacetsForBatch facets have points. It
// passes over at most r facets that touch the batch's 2-rings.
func (bq *batchQueue) next(h *hullState3, r int) []int32 {
	bq.batch++
	for len(bq.claim) < len(h.facets) {
		bq.claim = append(bq.claim, 0)
	}
	sel, skipped := bq.sel[:0], bq.skipped[:0]
	for len(bq.heap) > 0 && len(sel) < r && len(skipped) < r {
		fi := bq.pop()
		f := &h.facets[fi]
		if f.dead {
			continue
		}
		if bq.claim[fi] == bq.batch || bq.claim[f.nbr[0]] == bq.batch ||
			bq.claim[f.nbr[1]] == bq.batch || bq.claim[f.nbr[2]] == bq.batch {
			skipped = append(skipped, fi)
			continue
		}
		sel = append(sel, fi)
		bq.claim[fi] = bq.batch
		for _, nb := range f.nbr {
			bq.claim[nb] = bq.batch
			for _, nb2 := range h.facets[nb].nbr {
				bq.claim[nb2] = bq.batch
			}
		}
	}
	if len(sel)+len(skipped) < minFacetsForBatch {
		skipped = append(skipped, sel[min(len(sel), 1):]...)
		sel = sel[:min(len(sel), 1)]
	}
	for _, fi := range skipped {
		bq.push(h, fi)
	}
	bq.sel, bq.skipped = sel, skipped
	return sel
}
