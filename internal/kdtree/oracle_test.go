package kdtree

import (
	"fmt"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
)

// Differential tests: every query the kd-tree answers is re-answered by the
// brute-force oracle. k-NN answers are compared by their sorted distance
// sequences (the tie-insensitive signature — equidistant points may be
// picked in any order); range answers are compared as exact index sets.

type distCase struct {
	name string
	gen  func(n, dim int, seed uint64) geom.Points
}

var distCases = []distCase{
	{"Uniform", generators.UniformCube},
	{"InSphere", generators.InSphere},
	{"OnSphere", generators.OnSphere},
	{"SeedSpreader", generators.SeedSpreader},
	{"Duplicated", func(n, dim int, seed uint64) geom.Points {
		// Every point appears ~4 times: heavy ties in both k-NN and range.
		base := generators.UniformCube((n+3)/4, dim, seed)
		pts := geom.NewPoints(n, dim)
		for i := 0; i < n; i++ {
			pts.Set(i, base.At(i%base.Len()))
		}
		return pts
	}},
	{"Collinear", func(n, dim int, seed uint64) geom.Points {
		// All points on a line: degenerate boxes in every split dimension.
		pts := geom.NewPoints(n, dim)
		row := make([]float64, dim)
		for i := 0; i < n; i++ {
			for c := range row {
				row[c] = float64(i) * float64(c+1)
			}
			pts.Set(i, row)
		}
		return pts
	}},
	{"SinglePoint", allEqual},
}

// allEqual returns n copies of one coordinate: zero-width boxes everywhere,
// and every k-NN distance ties at zero.
func allEqual(n, dim int, _ uint64) geom.Points {
	pts := geom.NewPoints(n, dim)
	row := make([]float64, dim)
	for c := range row {
		row[c] = 3.25
	}
	for i := 0; i < n; i++ {
		pts.Set(i, row)
	}
	return pts
}

func checkKNNDists(t *testing.T, pts geom.Points, got []int32, q []float64, wantD []float64, label string) {
	t.Helper()
	if len(got) != len(wantD) {
		t.Fatalf("%s: got %d neighbors, oracle %d", label, len(got), len(wantD))
	}
	for j, id := range got {
		if d := geom.SqDist(q, pts.At(int(id))); d != wantD[j] {
			t.Fatalf("%s: neighbor %d at sqdist %v, oracle %v", label, j, d, wantD[j])
		}
	}
}

func TestKNNMatchesOracle(t *testing.T) {
	const n = 400
	for _, tc := range distCases {
		for _, dim := range []int{2, 3, 5} {
			for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
				for seed := uint64(1); seed <= 3; seed++ {
					label := fmt.Sprintf("%s/d%d/%v/seed%d", tc.name, dim, split, seed)
					pts := tc.gen(n, dim, seed)
					tr := Build(pts, Options{Split: split})
					queries := make([]int32, 0, 20)
					for i := 0; i < 20; i++ {
						queries = append(queries, int32((i*37)%n))
					}
					for _, k := range []int{1, 5, 16} {
						res := tr.KNN(queries, k)
						for qi, q := range queries {
							wantD := oracle.KNNDists(pts, pts.At(int(q)), k, q)
							checkKNNDists(t, pts, res[qi],
								pts.At(int(q)), wantD, label+fmt.Sprintf("/k%d/q%d", k, q))
						}
					}
				}
			}
		}
	}
}

func TestRangeMatchesOracle(t *testing.T) {
	const n = 500
	for _, tc := range distCases {
		for _, dim := range []int{2, 3} {
			for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
				seed := uint64(7)
				label := fmt.Sprintf("%s/d%d/%v", tc.name, dim, split)
				pts := tc.gen(n, dim, seed)
				tr := Build(pts, Options{Split: split})
				boxes := rangeProbeBoxes(pts, dim)
				for bi, box := range boxes {
					want := oracle.RangeSearch(pts, box)
					got := tr.RangeSearch(box)
					if !sameIndexSet(got, want) {
						t.Fatalf("%s/box%d: range set mismatch (%d vs %d)",
							label, bi, len(got), len(want))
					}
					if cnt := tr.RangeCount(box); cnt != len(want) {
						t.Fatalf("%s/box%d: count %d, oracle %d", label, bi, cnt, len(want))
					}
				}
			}
		}
	}
}

// rangeProbeBoxes builds boxes exercising all cases: containing everything,
// nothing, partial overlap, and degenerate zero-volume boxes on a point
// (closed-boundary semantics).
func rangeProbeBoxes(pts geom.Points, dim int) []geom.Box {
	lo, hi := make([]float64, dim), make([]float64, dim)
	bb := geom.EmptyBox(dim)
	for i := 0; i < pts.Len(); i++ {
		bb.Expand(pts.At(i))
	}
	var boxes []geom.Box
	// Everything.
	for c := 0; c < dim; c++ {
		lo[c], hi[c] = bb.Min[c]-1, bb.Max[c]+1
	}
	boxes = append(boxes, cloneBox(lo, hi))
	// Nothing.
	for c := 0; c < dim; c++ {
		lo[c], hi[c] = bb.Max[c]+10, bb.Max[c]+20
	}
	boxes = append(boxes, cloneBox(lo, hi))
	// Quadrants and slabs.
	for c := 0; c < dim; c++ {
		mid := (bb.Min[c] + bb.Max[c]) / 2
		for d := 0; d < dim; d++ {
			lo[d], hi[d] = bb.Min[d]-1, bb.Max[d]+1
		}
		lo[c], hi[c] = bb.Min[c], mid
		boxes = append(boxes, cloneBox(lo, hi))
	}
	// Degenerate box exactly on a data point: boundary must be inside.
	p := pts.At(pts.Len() / 2)
	boxes = append(boxes, cloneBox(p, p))
	return boxes
}

func cloneBox(lo, hi []float64) geom.Box {
	return geom.Box{
		Min: append([]float64(nil), lo...),
		Max: append([]float64(nil), hi...),
	}
}

func sameIndexSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int32]int, len(a))
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
	}
	for _, c := range seen {
		if c != 0 {
			return false
		}
	}
	return true
}
