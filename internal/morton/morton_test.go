package morton

import (
	"sort"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

func TestBitsPerDim(t *testing.T) {
	cases := map[int]int{1: 21, 2: 21, 3: 21, 4: 16, 5: 12, 7: 9, 8: 8}
	for dim, want := range cases {
		if got := BitsPerDim(dim); got != want {
			t.Fatalf("BitsPerDim(%d) = %d, want %d", dim, got, want)
		}
	}
}

func TestEncodeOrdering2D(t *testing.T) {
	// In Z-order, the four quadrant representatives sort as
	// (lo,lo) < (hi,lo) < (lo,hi) < (hi,hi) with x as bit 0.
	box := geom.EmptyBox(2)
	box.Expand([]float64{0, 0})
	box.Expand([]float64{1, 1})
	ll := Encode([]float64{0.1, 0.1}, box)
	hl := Encode([]float64{0.9, 0.1}, box)
	lh := Encode([]float64{0.1, 0.9}, box)
	hh := Encode([]float64{0.9, 0.9}, box)
	if !(ll < hl && hl < lh && lh < hh) {
		t.Fatalf("quadrant order wrong: %x %x %x %x", ll, hl, lh, hh)
	}
}

func TestEncodeClamps(t *testing.T) {
	box := geom.EmptyBox(2)
	box.Expand([]float64{0, 0})
	box.Expand([]float64{1, 1})
	out := Encode([]float64{-5, 7}, box)
	in := Encode([]float64{0, 1}, box)
	if out != in {
		t.Fatalf("clamping failed: %x vs %x", out, in)
	}
}

func TestSortIsPermutationAndOrdered(t *testing.T) {
	for _, dim := range []int{2, 3, 5} {
		pts := generators.UniformCube(10000, dim, uint64(dim)+40)
		idx := Sort(pts)
		if len(idx) != 10000 {
			t.Fatalf("dim=%d: %d indices", dim, len(idx))
		}
		seen := make([]bool, 10000)
		for _, i := range idx {
			if seen[i] {
				t.Fatalf("dim=%d: duplicate index %d", dim, i)
			}
			seen[i] = true
		}
		// Codes along the output order must be non-decreasing.
		box := geom.BoundingBoxAll(pts)
		prev := uint64(0)
		for k, i := range idx {
			c := Encode(pts.At(int(i)), box)
			if c < prev {
				t.Fatalf("dim=%d: codes out of order at %d", dim, k)
			}
			prev = c
		}
	}
}

func TestSortMatchesComparatorSort(t *testing.T) {
	pts := generators.UniformCube(5000, 3, 50)
	got := Sort(pts)
	box := geom.BoundingBoxAll(pts)
	want := make([]int32, 5000)
	for i := range want {
		want[i] = int32(i)
	}
	codes := make([]uint64, 5000)
	for i := range codes {
		codes[i] = Encode(pts.At(i), box)
	}
	sort.SliceStable(want, func(a, b int) bool { return codes[want[a]] < codes[want[b]] })
	for i := range got {
		if codes[got[i]] != codes[want[i]] {
			t.Fatalf("order differs at %d", i)
		}
	}
}

func TestMortonLocality(t *testing.T) {
	// Spatial locality: the average distance between Morton-consecutive
	// points should be much smaller than between random pairs.
	pts := generators.UniformCube(20000, 2, 60)
	ordered := SortPoints(pts)
	sumAdj := 0.0
	for i := 1; i < ordered.Len(); i++ {
		sumAdj += ordered.SqDist(i-1, i)
	}
	avgAdj := sumAdj / float64(ordered.Len()-1)
	sumRand := 0.0
	for i := 0; i < 1000; i++ {
		sumRand += pts.SqDist(i, (i*7919+13)%20000)
	}
	avgRand := sumRand / 1000
	if avgAdj*10 > avgRand {
		t.Fatalf("Morton order shows no locality: adj %.2f vs rand %.2f", avgAdj, avgRand)
	}
}
