// Package core implements the paper's central algorithmic device: the
// reservation technique for parallel incremental algorithms (§3, Fig. 5).
//
// A sequential incremental algorithm adds one point per round, mutating a
// shared structure (a convex hull, a triangulation). The reservation-based
// parallel version processes a *batch* of points per round in three
// phases:
//
//  1. reserve — each point, in parallel, performs an atomic priority write
//     (WriteMin of its priority) into every structure element ("facet") it
//     would modify;
//  2. check — each point verifies, in parallel, that it still holds all of
//     its reservations; points that do are "successful";
//  3. commit — successful points mutate the structure in parallel; their
//     modified element sets are guaranteed disjoint, so no locks are
//     needed.
//
// Because priorities are point IDs (positions in a random permutation for
// the randomized incremental variant), the set of winners each round is
// deterministic regardless of thread schedule — the technique inherits the
// "internally deterministic" property of Blelloch et al.'s deterministic
// reservations.
//
// This package provides the reservation slots, the round driver
// (SpeculativeFor, which feeds a priority order to the rounds batch by
// batch), and the instrumentation counters used for the
// reservation-overhead experiment (Fig. 12). The convex hull (hull2d,
// hull3d) and the Delaunay triangulation build on it.
package core

import (
	"sync/atomic"

	"pargeo/internal/parlay"
)

// NoOwner is the reservation value meaning "unreserved". All real
// priorities must be smaller.
const NoOwner int64 = 1<<63 - 1

// Reservations is a set of atomic reservation slots, one per structure
// element (facet, triangle, edge). The zero value is not ready; use Grow or
// NewReservations.
type Reservations struct {
	slots []int64
}

// NewReservations returns n unreserved slots.
func NewReservations(n int) *Reservations {
	r := &Reservations{slots: make([]int64, n)}
	for i := range r.slots {
		r.slots[i] = NoOwner
	}
	return r
}

// Len returns the number of slots.
func (r *Reservations) Len() int { return len(r.slots) }

// Grow appends unreserved slots until the set holds at least n.
func (r *Reservations) Grow(n int) {
	for len(r.slots) < n {
		r.slots = append(r.slots, NoOwner)
	}
}

// Reserve performs the priority write: slot i is claimed by priority p if p
// is smaller than the current claim. Safe for concurrent use.
func (r *Reservations) Reserve(i int, p int64) { parlay.WriteMin(&r.slots[i], p) }

// Holds reports whether priority p currently holds slot i.
func (r *Reservations) Holds(i int, p int64) bool {
	return atomic.LoadInt64(&r.slots[i]) == p
}

// Release resets slot i to unreserved. Call between rounds on surviving
// elements (newly created elements start unreserved).
func (r *Reservations) Release(i int) { atomic.StoreInt64(&r.slots[i], NoOwner) }

// ReserveSlots claims, for priority p, every slot in a and in b: a point's
// visible elements and the boundary elements its insertion rewires.
func (r *Reservations) ReserveSlots(p int64, a, b []int32) {
	for _, l := range [2][]int32{a, b} {
		for _, i := range l {
			r.Reserve(int(i), p)
		}
	}
}

// HoldsSlots reports whether priority p holds every slot in a and in b.
func (r *Reservations) HoldsSlots(p int64, a, b []int32) bool {
	for _, l := range [2][]int32{a, b} {
		for _, i := range l {
			if !r.Holds(int(i), p) {
				return false
			}
		}
	}
	return true
}

// ReleaseSlots resets every slot in a and in b. A round calls it for each
// of its points once every point has checked; the slot of an element that
// died in the round is reset too, and never read again.
func (r *Reservations) ReleaseSlots(a, b []int32) {
	for _, l := range [2][]int32{a, b} {
		for _, i := range l {
			r.Release(int(i))
		}
	}
}

// SpeculativeFor drives the reservation rounds of a randomized incremental
// algorithm: it runs round on successive batches of up to size points of
// order that are not done, until every point is done. Each batch is the
// first size points of order, in order, that are not done when the round
// starts, and a point that is not done after its round is retried in the
// next. done must stay true once it is true, and round must leave its
// batch as it found it.
//
// order is reused as the work queue, and each point is passed to done at
// most once before its first round and once after each round it takes part
// in, so a run costs O(len(order)) plus its failed attempts. This is the speculative for-loop of Blelloch, Fineman, Gibbons and Shun,
// "Internally Deterministic Parallel Algorithms Can Be Fast" (PPoPP 2012),
// with a fixed round size.
func SpeculativeFor(order []int32, size int, done func(q int32) bool, round func(batch []int32)) {
	// order[lo:next] holds the points still to retry, in order, none of
	// them done; order[next:] has not been looked at yet.
	lo, next := 0, 0
	for {
		k := next
		for ; k-lo < size && next < len(order); next++ {
			if q := order[next]; !done(q) {
				order[k] = q
				k++
			}
		}
		if k == lo {
			return
		}
		round(order[lo:k])
		// Move the batch's survivors, in order, to the end of the gap the
		// dropped points left, so that they directly precede order[next:].
		w := next
		for i := k - 1; i >= lo; i-- {
			if q := order[i]; !done(q) {
				w--
				order[w] = q
			}
		}
		lo = w
	}
}

// Stats instruments a reservation-based run for the Fig. 12 overhead
// experiment. Counters are atomic so the parallel phases can bump them.
type Stats struct {
	Rounds         int64 // number of batch rounds executed
	PointsTouched  int64 // visible/conflict points examined across rounds
	FacetsTouched  int64 // visible facets examined (incl. re-examinations)
	Reservations   int64 // priority writes performed
	Successes      int64 // points whose reservation succeeded
	Failures       int64 // points that lost at least one reservation
	ElementsAlloc  int64 // structure elements created
	ElementsKilled int64 // structure elements deleted
}

// AddPoints atomically adds n to the points-touched counter.
func (s *Stats) AddPoints(n int64) {
	if s != nil {
		atomic.AddInt64(&s.PointsTouched, n)
	}
}

// AddFacets atomically adds n to the facets-touched counter.
func (s *Stats) AddFacets(n int64) {
	if s != nil {
		atomic.AddInt64(&s.FacetsTouched, n)
	}
}

// AddReservations atomically adds n to the reservation counter.
func (s *Stats) AddReservations(n int64) {
	if s != nil {
		atomic.AddInt64(&s.Reservations, n)
	}
}

// AddSuccess records a successful point.
func (s *Stats) AddSuccess() {
	if s != nil {
		atomic.AddInt64(&s.Successes, 1)
	}
}

// AddFailure records a failed point.
func (s *Stats) AddFailure() {
	if s != nil {
		atomic.AddInt64(&s.Failures, 1)
	}
}

// AddRound records one completed round.
func (s *Stats) AddRound() {
	if s != nil {
		atomic.AddInt64(&s.Rounds, 1)
	}
}

// AddAlloc records n created elements.
func (s *Stats) AddAlloc(n int64) {
	if s != nil {
		atomic.AddInt64(&s.ElementsAlloc, n)
	}
}

// AddKilled records n deleted elements.
func (s *Stats) AddKilled(n int64) {
	if s != nil {
		atomic.AddInt64(&s.ElementsKilled, n)
	}
}

// BatchSize returns the paper's round batch size c·numProc (§3, Appendix
// A): a small constant times the worker count. The constant trades round
// count against reservation contention.
func BatchSize(c int) int {
	if c <= 0 {
		c = 8
	}
	return c * parlay.NumWorkers()
}
