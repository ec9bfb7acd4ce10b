package kdtree

import (
	"testing"

	"pargeo/internal/generators"
)

// Allocation-regression tests: the flat arena layout's contract is that a
// build performs O(1) allocations (the index permutation, the node arena,
// the leaf-coordinate cache, and — for spatial splits — the slab arena it
// compacts away) and that a query with a reused buffer performs none. These
// tests lock that in so a refactor cannot quietly reintroduce the
// one-allocation-per-node pointer design. Under -race the builds still run
// (for data-race coverage) but exact counts are not asserted — the
// detector's instrumentation allocates on its own.

// serialBuildAllocBudget bounds a serial Build: Tree header, Idx,
// LeafCoords, Nodes (plus, for spatial splits, the worst-case slab and the
// compaction closure) — with a little slack for runtime bookkeeping.
const serialBuildAllocBudget = 12

func TestBuildAllocationRegression(t *testing.T) {
	for _, n := range []int{10000, 30000} {
		pts := generators.UniformCube(n, 3, uint64(n))
		for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
			serial := testing.AllocsPerRun(5, func() {
				Build(pts, Options{Split: split, Serial: true})
			})
			// The parallel build adds O(forks) scheduler tasks — bounded by
			// n / parallelBuildThreshold, never by n / LeafSize.
			parallel := testing.AllocsPerRun(5, func() {
				Build(pts, Options{Split: split})
			})
			if raceEnabled {
				continue
			}
			if serial > serialBuildAllocBudget {
				t.Errorf("n=%d split=%v: serial Build did %.0f allocs, budget %d",
					n, split, serial, serialBuildAllocBudget)
			}
			forkBudget := float64(serialBuildAllocBudget + 8*(n/parallelBuildThreshold+1))
			if parallel > forkBudget {
				t.Errorf("n=%d split=%v: parallel Build did %.0f allocs, budget %.0f",
					n, split, parallel, forkBudget)
			}
		}
	}
}

// TestBuildAllocsDoNotScaleWithNodes is the sharper form of the regression:
// quadrupling the point count (16x the node count at LeafSize 4) must leave
// the serial allocation count unchanged.
func TestBuildAllocsDoNotScaleWithNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	small := generators.UniformCube(8000, 2, 1)
	large := generators.UniformCube(32000, 2, 2)
	for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
		a := testing.AllocsPerRun(5, func() {
			Build(small, Options{Split: split, LeafSize: 4, Serial: true})
		})
		b := testing.AllocsPerRun(5, func() {
			Build(large, Options{Split: split, LeafSize: 4, Serial: true})
		})
		if b > a {
			t.Errorf("split=%v: allocs grew with input: %.0f (8k pts) -> %.0f (32k pts)",
				split, a, b)
		}
	}
}

func TestKNNIntoZeroAllocs(t *testing.T) {
	pts := generators.UniformCube(5000, 3, 7)
	tr := Build(pts, Options{})
	if !tr.f32ok {
		t.Fatal("expected the f32 leaf filter active; zero-alloc claim must cover the f32 scan path")
	}
	buf := NewKNNBuffer(8)
	q := pts.At(123)
	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		tr.KNNInto(q, 123, buf)
	})
	if raceEnabled {
		return
	}
	if allocs != 0 {
		t.Errorf("KNNInto with reused buffer did %.2f allocs/run, want 0", allocs)
	}
}

func TestRangeCountZeroAllocs(t *testing.T) {
	pts := generators.UniformCube(5000, 3, 9)
	tr := Build(pts, Options{})
	c := pts.At(2500)
	box := boxAround(c, 4)
	allocs := testing.AllocsPerRun(200, func() {
		tr.RangeCount(box)
	})
	if raceEnabled {
		return
	}
	if allocs != 0 {
		t.Errorf("RangeCount did %.2f allocs/run, want 0", allocs)
	}
}

// allknnSerialAllocBudget bounds a sub-grain (single-worker) AllKNN pass:
// the result slice, the one KNNBuffer (id/dist rows plus the f32 query and
// distance scratch), the leaf group's scratch, and the ancestor-path
// slice. Nothing may scale with the number of queries — the leaf-group
// pass reuses one buffer and one scratch across the whole batch.
const allknnSerialAllocBudget = 24

func TestAllKNNAllocsConstantSerial(t *testing.T) {
	for _, n := range []int{500, 2000} {
		pts := generators.UniformCube(n, 3, 21)
		tr := Build(pts, Options{})
		if !tr.f32ok {
			t.Fatal("expected the f32 leaf filter active")
		}
		allocs := testing.AllocsPerRun(5, func() {
			tr.AllKNN(4, nil)
		})
		if raceEnabled {
			return
		}
		if allocs > allknnSerialAllocBudget {
			t.Errorf("n=%d: AllKNN did %.0f allocs/run, budget %d (per-query allocation crept in)",
				n, allocs, allknnSerialAllocBudget)
		}
	}
}
