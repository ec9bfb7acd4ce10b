package kdtree

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/rng"
)

// Differential tests for trees over caller labels (BuildRows): the two
// things a BDL level has and a Build tree lacks — arbitrary labels and
// tombstones — go through the same traversals, so every answer is checked
// against the brute-force oracle over the rows that are still live.

// rowsFixture builds a tree over a copy of pts (BuildRows owns its input)
// with labels 7i+3 and tombstones the rows kill selects; it returns the
// tree and the oracle's view of it (live coordinates and the label of each
// live row).
func rowsFixture(pts geom.Points, opts Options, kill func(label int32) bool) (*Tree, geom.Points, []int32) {
	labels := make([]int32, pts.Len())
	for i := range labels {
		labels[i] = int32(7*i + 3)
	}
	tr := BuildRows(geom.Points{Data: slices.Clone(pts.Data), Dim: pts.Dim}, labels, opts)
	live := geom.Points{Dim: pts.Dim}
	var liveLabels []int32
	for r, lab := range tr.Idx {
		if kill != nil && kill(lab) {
			if tr.Dead == nil {
				tr.Dead = make([]uint64, (len(tr.Idx)+63)/64)
			}
			tr.Dead[r>>6] |= 1 << (uint(r) & 63)
			continue
		}
		live.Data = append(live.Data, tr.Pts.At(r)...)
		liveLabels = append(liveLabels, lab)
	}
	return tr, live, liveLabels
}

func TestBuildRowsKeepsEveryPointUnderItsLabel(t *testing.T) {
	pts := generators.UniformCube(3000, 3, 5)
	for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
		tr, _, _ := rowsFixture(pts, Options{Split: split, LeafSize: 64}, nil)
		if tr.Pts.Len() != pts.Len() || len(tr.Idx) != pts.Len() {
			t.Fatalf("%v: %d rows, %d labels, want %d", split, tr.Pts.Len(), len(tr.Idx), pts.Len())
		}
		seen := make(map[int32]bool, pts.Len())
		for r, lab := range tr.Idx {
			src := int(lab-3) / 7
			if seen[lab] || geom.SqDist(tr.Pts.At(r), pts.At(src)) != 0 {
				t.Fatalf("%v: row %d carries label %d but not its point", split, r, lab)
			}
			seen[lab] = true
			// The f32 slab slot of a row is the row itself.
			nd := leafOf(tr, int32(r))
			m, i := int(nd.Hi-nd.Lo), r-int(nd.Lo)
			for c := 0; c < 3; c++ {
				if got := tr.CoordsF32[int(nd.Lo)*3+c*m+i]; got != float32(tr.Pts.Coord(r, c)) {
					t.Fatalf("%v: row %d dim %d: slab %v, row %v", split, r, c, got, tr.Pts.Coord(r, c))
				}
			}
		}
	}
}

func leafOf(tr *Tree, r int32) *Node {
	nd := tr.Root()
	for !nd.IsLeaf() {
		if l := tr.Left(nd); r < l.Hi {
			nd = l
		} else {
			nd = tr.Right(nd)
		}
	}
	return nd
}

func TestRowsQueriesMatchOracle(t *testing.T) {
	// A third of the points are duplicates of another, so ties at the k-th
	// distance and delete-one-of-two both occur.
	pts := generators.SeedSpreader(2400, 2, 11)
	for i := 0; i < pts.Len(); i += 3 {
		pts.Set(i, pts.At((i+1)%pts.Len()))
	}
	r := rng.NewXoshiro256(3)
	for _, tc := range []struct {
		name string
		kill func(int32) bool
	}{
		{"all-live", nil},
		{"third-dead", func(lab int32) bool { return lab%3 == 0 }},
	} {
		for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
			tr, live, liveLabels := rowsFixture(pts, Options{Split: split, LeafSize: 64}, tc.kill)
			labelRow := make(map[int32]int, len(liveLabels))
			for i, lab := range liveLabels {
				labelRow[lab] = i
			}
			for qi := 0; qi < 60; qi++ {
				q := []float64{pts.Coord(r.Intn(pts.Len()), 0) + r.Float64(), pts.Coord(r.Intn(pts.Len()), 1)}
				for _, k := range []int{1, 8, 70} {
					lbl := fmt.Sprintf("%s/%v/q%d/k%d", tc.name, split, qi, k)
					exclude := liveLabels[qi]
					buf := NewKNNBuffer(k)
					tr.KNNInto(q, exclude, buf)
					got := buf.Result(nil)
					want := oracle.KNNDists(live, q, k, int32(labelRow[exclude]))
					if len(got) != len(want) {
						t.Fatalf("%s: %d neighbours, oracle %d", lbl, len(got), len(want))
					}
					for j, lab := range got {
						row, ok := labelRow[lab]
						if !ok || lab == exclude {
							t.Fatalf("%s: reported dead, excluded or unknown label %d", lbl, lab)
						}
						if d := geom.SqDist(q, live.At(row)); d != want[j] {
							t.Fatalf("%s: dist[%d] = %v, oracle %v", lbl, j, d, want[j])
						}
					}
				}
				box := boxAround(q, 1+40*r.Float64())
				want := oracle.RangeSearch(live, box)
				for i, row := range want {
					want[i] = liveLabels[row]
				}
				got := tr.RangeSearch(box)
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s/%v/q%d: range labels differ: %d vs oracle %d", tc.name, split, qi, len(got), len(want))
				}
				if c := tr.RangeCount(box); c != len(want) {
					t.Fatalf("%s/%v/q%d: RangeCount %d, oracle %d", tc.name, split, qi, c, len(want))
				}
			}
		}
	}
}

// TestRowsEagerThresholdIgnoresDeadRows: the first leaf of an unbounded
// query may bound the k-th distance from its f32 scan only if every
// scanned row is a candidate. Here the k+1 rows nearest the query are all
// tombstoned; a bound sealed from them would discard every live neighbour.
func TestRowsEagerThresholdIgnoresDeadRows(t *testing.T) {
	const k = 8
	pts := generators.UniformCube(4000, 2, 17)
	q := append([]float64(nil), pts.At(1234)...)
	near := oracle.KNN(pts, q, k+1, -1)
	dead := make(map[int32]bool)
	for _, i := range near {
		dead[int32(7*i+3)] = true
	}
	tr, live, _ := rowsFixture(pts, Options{LeafSize: 64}, func(lab int32) bool { return dead[lab] })
	if !tr.f32ok {
		t.Fatal("expected the f32 leaf filter active")
	}
	buf := NewKNNBuffer(k)
	tr.KNNInto(q, -1, buf)
	ids := make([]int32, k)
	dists := make([]float64, k)
	if n := buf.ResultInto(ids, dists); n != k {
		t.Fatalf("%d neighbours, want %d", n, k)
	}
	want := oracle.KNNDists(live, q, k, -1)
	for j := range want {
		if dead[ids[j]] || dists[j] != want[j] {
			t.Fatalf("neighbour %d: label %d (dead=%v) at %v, oracle %v", j, ids[j], dead[ids[j]], dists[j], want[j])
		}
	}
}
