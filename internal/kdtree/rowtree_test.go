package kdtree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/rng"
)

// Every tree owns its rows and partitions them in place. These tests hold
// that layout to the brute-force answers by point index, to the caller's
// buffer staying untouched, and to builds that end on any input.

// topK returns the k nearest points to q by (squared distance, index),
// skipping exclude: oracle.KNN without sorting all n candidates.
func topK(pts geom.Points, q []float64, k int, exclude int32) ([]int32, []float64) {
	ids := make([]int32, 0, k+1)
	ds := make([]float64, 0, k+1)
	for i := 0; i < pts.Len(); i++ {
		if int32(i) == exclude {
			continue
		}
		d := geom.SqDist(q, pts.At(i))
		if len(ds) == k && d >= ds[k-1] {
			continue
		}
		j := sort.Search(len(ds), func(j int) bool { return ds[j] > d })
		ids, ds = slices.Insert(ids, j, int32(i)), slices.Insert(ds, j, d)
		if len(ds) > k {
			ids, ds = ids[:k], ds[:k]
		}
	}
	return ids, ds
}

// checkNeighbours compares one k-NN answer with the brute force's: equal
// distances rank by rank, and the same ids wherever the distance is not
// tied with the k-th (a tie at the boundary may pick either point).
func checkNeighbours(t *testing.T, label string, pts geom.Points, q []float64, got []int32, wantIDs []int32, wantD []float64) {
	t.Helper()
	if len(got) != len(wantIDs) {
		t.Fatalf("%s: %d neighbours, brute force %d", label, len(got), len(wantIDs))
	}
	if len(got) == 0 {
		return
	}
	kth := wantD[len(wantD)-1]
	var gotIn, wantIn []int32
	for j, id := range got {
		if d := geom.SqDist(q, pts.At(int(id))); d != wantD[j] {
			t.Fatalf("%s: neighbour %d is %d at %v, brute force %v", label, j, id, d, wantD[j])
		}
		if wantD[j] < kth {
			gotIn, wantIn = append(gotIn, id), append(wantIn, wantIDs[j])
		}
	}
	slices.Sort(gotIn)
	slices.Sort(wantIn)
	if !slices.Equal(gotIn, wantIn) {
		t.Fatalf("%s: ids %v, brute force %v", label, got, wantIDs)
	}
}

// sampleRows returns up to m distinct point indices of [0, n), spread
// over the whole range.
func sampleRows(n, m int) []int32 {
	step := max(1, n/m)
	var out []int32
	for i := 0; i < n; i += step {
		out = append(out, int32(i))
	}
	return out
}

func TestRowTreeEquivalence(t *testing.T) {
	sizes := []int{0, 1, 31, 32, 33, 4097, 50000}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	const k = 5
	type input struct {
		name string
		pts  geom.Points
	}
	var inputs []input
	for _, dim := range []int{2, 5, 7} {
		for _, n := range sizes {
			inputs = append(inputs, input{fmt.Sprintf("uniform/d%d/n%d", dim, n), generators.UniformCube(n, dim, uint64(n+dim))})
		}
		// Duplicate-heavy: every point eight times, so ties sit on split
		// planes and at the k-th distance.
		base := generators.UniformCube(512, dim, uint64(dim))
		dup := geom.NewPoints(4096, dim)
		for i := 0; i < dup.Len(); i++ {
			dup.Set(i, base.At(i%base.Len()))
		}
		inputs = append(inputs, input{fmt.Sprintf("dup/d%d/n4096", dim), dup})
	}
	for _, in := range inputs {
		for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
			label := fmt.Sprintf("%s/%v", in.name, split)
			pts, n := in.pts, in.pts.Len()
			before := slices.Clone(pts.Data)
			tr := Build(pts, Options{Split: split})
			if !slices.Equal(pts.Data, before) {
				t.Fatalf("%s: Build wrote the caller's points", label)
			}
			// The same points handed over in reverse with their indices as
			// labels: BuildRows must give Build's answers.
			rev := geom.NewPoints(n, pts.Dim)
			revLabels := make([]int32, n)
			for i := 0; i < n; i++ {
				rev.Set(i, pts.At(n-1-i))
				revLabels[i] = int32(n - 1 - i)
			}
			trRev := BuildRows(rev, revLabels, Options{Split: split})
			// Brute-force answers for a spread of queries, 40 on the largest
			// input.
			queries := sampleRows(n, min(200, 2_000_000/max(n, 1)))
			wantIDs, wantD := make([][]int32, len(queries)), make([][]float64, len(queries))
			boxes, wantR := make([]geom.Box, len(queries)), make([][]int32, len(queries))
			for qi, p := range queries {
				q := pts.At(int(p))
				wantIDs[qi], wantD[qi] = topK(pts, q, k, p)
				// About 1 % of the cube (side √n) around the query.
				boxes[qi] = boxAround(q, 0.5*math.Sqrt(float64(n))*math.Pow(0.01, 1/float64(pts.Dim)))
				wantR[qi] = oracle.RangeSearch(pts, boxes[qi])
			}
			trees := []struct {
				name string
				tr   *Tree
			}{{"Build", tr}, {"BuildRows", trRev}}
			if n > 5000 {
				trees = trees[:1] // the smaller inputs cover BuildRows
			}
			for _, tc := range trees {
				lbl := label + "/" + tc.name
				knn := tc.tr.KNN(queries, k)
				sq := make([]float64, n*k)
				all := tc.tr.AllKNN(k, sq)
				kth := tc.tr.AllKthSqDist(k)
				for qi, p := range queries {
					q := pts.At(int(p))
					wantIDs, wantD := wantIDs[qi], wantD[qi]
					checkNeighbours(t, fmt.Sprintf("%s/KNN/p%d", lbl, p), pts, q, knn[qi], wantIDs, wantD)
					row := all[int(p)*k : int(p)*k+len(wantIDs)]
					checkNeighbours(t, fmt.Sprintf("%s/AllKNN/p%d", lbl, p), pts, q, row, wantIDs, wantD)
					for j := len(wantIDs); j < k; j++ {
						if all[int(p)*k+j] != -1 || !math.IsInf(sq[int(p)*k+j], 1) {
							t.Fatalf("%s/AllKNN/p%d: slot %d not padded", lbl, p, j)
						}
					}
					want := math.Inf(1)
					if len(wantD) == k {
						want = wantD[k-1]
					}
					if kth[p] != want {
						t.Fatalf("%s/AllKthSqDist/p%d: %v, brute force %v", lbl, p, kth[p], want)
					}
					got := tc.tr.RangeSearch(boxes[qi])
					slices.Sort(got)
					if !slices.Equal(got, wantR[qi]) {
						t.Fatalf("%s/RangeSearch/p%d: %d ids, brute force %d", lbl, p, len(got), len(wantR[qi]))
					}
				}
			}
		}
	}
}

// TestBuildNonFiniteTerminates: a build must end, and keep every row under
// its label, whatever the coordinates — a spatial cut through an infinite
// or NaN extent falls back to the object median, and neither partition
// loops on a NaN key. Each build runs against a deadline so that a
// regression fails this test instead of hanging the suite.
func TestBuildNonFiniteTerminates(t *testing.T) {
	const n = 5000
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		spoil func(pts geom.Points)
	}{
		{"scattered-NaN", func(pts geom.Points) {
			r := rng.NewXoshiro256(5)
			for i := 0; i < n; i += 7 {
				pts.Data[i*2+r.Intn(2)] = nan
			}
		}},
		{"pm-Inf-in-x", func(pts geom.Points) {
			pts.Data[17*2] = math.Inf(1)
			pts.Data[4000*2] = math.Inf(-1)
		}},
		{"all-NaN-column", func(pts geom.Points) {
			for i := 0; i < n; i++ {
				pts.Data[i*2+1] = nan
			}
		}},
	} {
		for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
			label := fmt.Sprintf("%s/%v", tc.name, split)
			pts := generators.UniformCube(n, 2, 3)
			tc.spoil(pts)
			done := make(chan *Tree, 1)
			go func() { done <- Build(pts, Options{Split: split}) }()
			var tr *Tree
			select {
			case tr = <-done:
			case <-time.After(20 * time.Second):
				t.Fatalf("%s: Build did not return within 20 s", label)
			}
			seen := make([]bool, n)
			for r, lab := range tr.Idx {
				if seen[lab] {
					t.Fatalf("%s: label %d on two rows", label, lab)
				}
				seen[lab] = true
				for c := 0; c < 2; c++ {
					if math.Float64bits(tr.Pts.Coord(r, c)) != math.Float64bits(pts.Coord(int(lab), c)) {
						t.Fatalf("%s: row %d does not hold point %d", label, r, lab)
					}
				}
			}
			if len(tr.Idx) != n {
				t.Fatalf("%s: %d rows, want %d", label, len(tr.Idx), n)
			}
		}
	}
}
