package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"pargeo/internal/parlay"
	"pargeo/internal/rng"
)

func TestReserveLowestPriorityWins(t *testing.T) {
	r := NewReservations(1)
	parlay.For(1000, 1, func(i int) {
		r.Reserve(0, int64(1000-i))
	})
	if !r.Holds(0, 1) {
		t.Fatal("priority 1 should hold the slot")
	}
	if r.Holds(0, 2) {
		t.Fatal("priority 2 should not hold")
	}
	r.Release(0)
	if r.Holds(0, 1) {
		t.Fatal("released slot still held")
	}
}

func TestGrowPreservesAndExtends(t *testing.T) {
	r := NewReservations(2)
	r.Reserve(0, 5)
	r.Grow(10)
	if r.Len() != 10 {
		t.Fatalf("len %d", r.Len())
	}
	if !r.Holds(0, 5) {
		t.Fatal("grow lost a reservation")
	}
	// New slots are unreserved: any priority can take them.
	r.Reserve(9, 123)
	if !r.Holds(9, 123) {
		t.Fatal("new slot not claimable")
	}
}

func TestSlotLists(t *testing.T) {
	r := NewReservations(8)
	vis, boundary := []int32{0, 1, 2}, []int32{5}
	r.ReserveSlots(3, vis, boundary)
	r.ReserveSlots(4, []int32{2, 3}, nil)
	if !r.HoldsSlots(3, vis, boundary) || r.HoldsSlots(4, []int32{2, 3}, nil) {
		t.Fatal("priority 3 should hold all its slots and 4 should lose slot 2")
	}
	r.ReserveSlots(1, nil, []int32{5})
	if r.HoldsSlots(3, vis, boundary) {
		t.Fatal("priority 3 still holds boundary slot 5 after 1 took it")
	}
	r.ReleaseSlots(vis, boundary)
	r.ReleaseSlots([]int32{2, 3}, nil)
	for i := 0; i < r.Len(); i++ {
		if !r.Holds(i, NoOwner) {
			t.Fatalf("slot %d still held", i)
		}
	}
}

func TestReservationRoundInvariant(t *testing.T) {
	// Simulated round: m points each reserve a random subset of slots; the
	// globally smallest priority must always succeed, and two successful
	// points never share a slot.
	const slots = 64
	const m = 200
	r := NewReservations(slots)
	sets := make([][]int, m)
	for i := range sets {
		a := (i * 13) % slots
		b := (i * 29) % slots
		sets[i] = []int{a, b, (a + b) % slots}
	}
	parlay.For(m, 1, func(i int) {
		for _, s := range sets[i] {
			r.Reserve(s, int64(i))
		}
	})
	success := make([]bool, m)
	parlay.For(m, 1, func(i int) {
		ok := true
		for _, s := range sets[i] {
			if !r.Holds(s, int64(i)) {
				ok = false
				break
			}
		}
		success[i] = ok
	})
	if !success[0] {
		t.Fatal("smallest priority lost a reservation")
	}
	owner := map[int]int{}
	var mu sync.Mutex
	for i := 0; i < m; i++ {
		if !success[i] {
			continue
		}
		mu.Lock()
		for _, s := range sets[i] {
			if prev, ok := owner[s]; ok && prev != i {
				t.Fatalf("slot %d claimed by %d and %d", s, prev, i)
			}
			owner[s] = i
		}
		mu.Unlock()
	}
}

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.AddPoints(5) // must not panic
	s.AddFacets(1)
	s.AddRound()
	s.AddSuccess()
	s.AddFailure()
	s.AddReservations(2)
	s.AddAlloc(1)
	s.AddKilled(1)
}

func TestBatchSize(t *testing.T) {
	if BatchSize(8) < 8 {
		t.Fatal("batch too small")
	}
	if BatchSize(0) != BatchSize(8) {
		t.Fatal("default c should be 8")
	}
}

// packLoop is the round loop SpeculativeFor replaced: after every round it
// packs the whole rest of the order, so a run costs O(n) per round.
func packLoop(order []int32, size int, done func(int32) bool, round func([]int32)) {
	rest := parlay.Pack(order, func(i int) bool { return !done(order[i]) })
	for len(rest) > 0 {
		round(rest[:min(size, len(rest))])
		rest = parlay.Pack(rest, func(i int) bool { return !done(rest[i]) })
	}
}

// roundSim plays a seeded pattern of rounds: the first point of a batch
// always wins (it has the smallest priority), each other point fails with
// probability failPct %, and each round also finishes up to outside random
// points, batch members or not (a hull point that a winner's new facets
// leave inside).
type roundSim struct {
	done             []bool
	r                *rng.Xoshiro256
	failPct, outside int
	batches          [][]int32
	calls            int
}

func newRoundSim(n int, seed uint64, failPct, outside, donePct int) *roundSim {
	s := &roundSim{done: make([]bool, n), r: rng.NewXoshiro256(seed), failPct: failPct, outside: outside}
	for i := range s.done {
		s.done[i] = s.r.Intn(100) < donePct
	}
	return s
}

func (s *roundSim) round(batch []int32) {
	s.batches = append(s.batches, slices.Clone(batch))
	for i, q := range batch {
		if s.done[q] {
			panic(fmt.Sprintf("point %d is done but in a batch", q))
		}
		if i == 0 || s.r.Intn(100) >= s.failPct {
			s.done[q] = true
		}
	}
	for j := s.r.Intn(s.outside + 1); j > 0; j-- {
		s.done[s.r.Intn(len(s.done))] = true
	}
}

func TestSpeculativeForMatchesPackLoop(t *testing.T) {
	for _, n := range []int{0, 1, 7, 300, 2000} {
		for _, size := range []int{1, 8, 16, 256} {
			for _, failPct := range []int{0, 40, 90} {
				for _, outside := range []int{0, 3, 40} {
					for seed := uint64(1); seed <= 3; seed++ {
						name := fmt.Sprintf("n=%d/size=%d/fail=%d/outside=%d/seed=%d", n, size, failPct, outside, seed)
						order := parlay.RandomPermutation(n, seed)
						ref := newRoundSim(n, seed, failPct, outside, 20)
						packLoop(slices.Clone(order), size, func(q int32) bool { return ref.done[q] }, ref.round)
						got := newRoundSim(n, seed, failPct, outside, 20)
						SpeculativeFor(order, size, func(q int32) bool { got.calls++; return got.done[q] }, got.round)
						if len(got.batches) != len(ref.batches) {
							t.Fatalf("%s: %d rounds, want %d", name, len(got.batches), len(ref.batches))
						}
						work := n
						for i := range ref.batches {
							if !slices.Equal(got.batches[i], ref.batches[i]) {
								t.Fatalf("%s: round %d batch %v, want %v", name, i, got.batches[i], ref.batches[i])
							}
							work += len(got.batches[i])
						}
						if got.calls > work {
							t.Fatalf("%s: %d calls to done, want at most n + Σ|batch| = %d", name, got.calls, work)
						}
					}
				}
			}
		}
	}
}
