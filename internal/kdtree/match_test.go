package kdtree

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pargeo/internal/geom"
	"pargeo/internal/rng"
)

// Exact-match point location (MatchRows) against a linear scan of the rows.

// scanRows is the reference: every live row equal to q, ascending.
func scanRows(tr *Tree, q []float64) []int32 {
	var rows []int32
	for r := range tr.Idx {
		if !tr.IsDead(int32(r)) && slices.Equal(tr.Pts.At(r), q) {
			rows = append(rows, int32(r))
		}
	}
	return rows
}

func checkMatch(t *testing.T, label string, tr *Tree, q []float64) int {
	t.Helper()
	got := tr.MatchRows(q, nil)
	slices.Sort(got)
	if want := scanRows(tr, q); !slices.Equal(got, want) {
		t.Fatalf("%s: q=%v matched rows %v, scan finds %v", label, q, got, want)
	}
	return len(got)
}

// TestMatchRowsOnGrid: integer-grid data is the descent's hard case — with
// 6 values per axis nearly every candidate equals a split value somewhere
// on its way down and must follow both children, yet may only report its
// own cell. Every cell holds duplicates; a third of the rows are dead.
func TestMatchRowsOnGrid(t *testing.T) {
	r := rng.NewXoshiro256(17)
	for _, dim := range []int{2, 3} {
		pts := geom.NewPoints(5000, dim)
		for i := range pts.Data {
			pts.Data[i] = float64(r.Intn(6))
		}
		for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
			label := fmt.Sprintf("d%d/%v", dim, split)
			tr, _, _ := rowsFixture(pts, Options{Split: split, LeafSize: 8}, func(lab int32) bool { return lab%3 == 0 })
			found := 0
			q := make([]float64, dim)
			for cell := 0; cell < 343; cell++ { // 7^3: one value past the grid per axis
				for c, v := 0, cell; c < dim; c, v = c+1, v/7 {
					q[c] = float64(v % 7)
				}
				found += checkMatch(t, label, tr, q)
			}
			live := 0
			for r := range tr.Idx {
				if !tr.IsDead(int32(r)) {
					live++
				}
			}
			if dim == 3 && found != live {
				t.Fatalf("%s: the cells hold %d rows together, %d are live", label, found, live)
			}
			// Off-grid candidates that share all but one coordinate with rows.
			q[0] = 2.5
			checkMatch(t, label, tr, q)
		}
	}
}

// TestMatchRowsSpecialValues: -0 equals +0, infinite candidates lie outside
// every box, and a NaN candidate equals nothing — it fails the root-box
// test, so the lookup ends there rather than taking the tie branch at every
// node. The rows reach past F32SafeMax, where distinct float64 rows share
// an f32 image and only the float64 comparison tells them apart.
func TestMatchRowsSpecialValues(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	pts := geom.NewPoints(300, 2)
	for i := 0; i < pts.Len(); i++ {
		pts.Set(i, []float64{float64(i%10) - 5, float64(i%7) * 1e19})
	}
	pts.Set(14, []float64{0, 1e19 + 4096}) // same f32 image as {0, 1e19}
	for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
		tr, _, _ := rowsFixture(pts, Options{Split: split, LeafSize: 4}, nil)
		if tr.f32ok {
			t.Fatal("fixture must be beyond the f32-safe bound")
		}
		for _, q := range [][]float64{
			{0, 0}, {negZero, negZero}, {negZero, 1e19}, {0, 1e19 + 4096},
			{inf, 3}, {-inf, 3}, {inf, inf}, {3, -inf}, {-5, 6e19},
		} {
			checkMatch(t, split.String(), tr, q)
		}
		if n := checkMatch(t, split.String(), tr, []float64{negZero, 0}); n == 0 {
			t.Fatal("-0 must match the +0 rows")
		}
		for _, q := range [][]float64{{nan, 3}, {0, nan}, {nan, nan}} {
			if nodeHolds(tr.Root(), q) || len(tr.MatchRows(q, nil)) != 0 {
				t.Fatalf("NaN candidate %v must stop at the root box and match nothing", q)
			}
		}
	}
}
