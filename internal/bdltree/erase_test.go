package bdltree

import (
	"fmt"
	"math"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/rng"
)

// Exact-match erase against oracle.LiveSet: each test deletes through the
// ladder and through the model and requires the same removal count, the
// same live set (verifyModel) and the half-capacity invariant afterwards.

var splitRules = []SplitRule{ObjectMedian, SpatialMedian}

// deleteBoth deletes batch from tree and model and compares.
func deleteBoth(t *testing.T, label string, tr *Tree, m *oracle.LiveSet, batch geom.Points) int {
	t.Helper()
	got, want := tr.Delete(batch), m.Remove(batch)
	if got != want {
		t.Fatalf("%s: tree removed %d, model %d", label, got, want)
	}
	verifyModel(t, tr, m, 77, label)
	checkHalfFull(t, label, tr)
	return got
}

// checkHalfFull: after a completed update no static tree is below half its
// capacity (empty slots aside) and none is above it.
func checkHalfFull(t *testing.T, label string, tr *Tree) {
	t.Helper()
	for i, l := range tr.trees {
		if n := l.size(); n != 0 && (n < (tr.x<<i)/2 || n > tr.x<<i) {
			t.Fatalf("%s: slot %d holds %d of %d: %v", label, i, n, tr.x<<i, tr.TreeSizes())
		}
	}
}

// TestEraseOnGrid: integer-grid data, where most candidates equal a split
// value on some level of every tree and every cell holds several rows.
func TestEraseOnGrid(t *testing.T) {
	r := rng.NewXoshiro256(5)
	for _, split := range splitRules {
		for _, dim := range []int{2, 3} {
			label := fmt.Sprintf("%v/d%d", split, dim)
			pts := geom.NewPoints(0b1101*32+9, dim)
			for i := range pts.Data {
				pts.Data[i] = float64(r.Intn(5))
			}
			tr := New(dim, Options{BufferSize: 32, Split: split})
			m := &oracle.LiveSet{Dim: dim}
			m.Insert(tr.Insert(pts), pts)
			// Three cells at a time, until the grid is empty; the last batch
			// reaches one value past the grid on every axis and matches nothing.
			cells := geom.Points{Dim: dim}
			for cell := 0; cell < 216; cell++ {
				q := make([]float64, dim)
				for c, v := 0, cell; c < dim; c, v = c+1, v/6 {
					q[c] = float64(v % 6)
				}
				cells.Data = append(cells.Data, q...)
			}
			for lo := 0; lo < cells.Len(); lo += 3 {
				deleteBoth(t, fmt.Sprintf("%s/cells %d+3", label, lo), tr, m, cells.Slice(lo, lo+3))
			}
			if tr.Size() != 0 {
				t.Fatalf("%s: %d points left on an erased grid", label, tr.Size())
			}
		}
	}
}

// TestEraseDuplicates: duplicate rows (one candidate removes every copy, in
// whatever levels the copies sit), duplicate candidates (each row counts
// once), candidates equal to rows that are already tombstoned (nothing),
// and a tree left without some of its versions' points still answers.
func TestEraseDuplicates(t *testing.T) {
	for _, split := range splitRules {
		label := split.String()
		base := generators.UniformCube(200, 3, 23)
		tr := New(3, Options{BufferSize: 16, Split: split})
		m := &oracle.LiveSet{Dim: 3}
		for round := 0; round < 3; round++ { // three copies, in different levels
			m.Insert(tr.Insert(base), base)
			extra := generators.UniformCube(37, 3, uint64(round)+90)
			m.Insert(tr.Insert(extra), extra)
		}
		one := base.Slice(0, 40)
		if got := deleteBoth(t, label+"/copies", tr, m, one); got != 120 {
			t.Fatalf("%s: 40 candidates over three copies removed %d, want 120", label, got)
		}
		if got := deleteBoth(t, label+"/already dead", tr, m, one); got != 0 {
			t.Fatalf("%s: deleting tombstoned rows again removed %d", label, got)
		}
		twice := geom.Points{Dim: 3}
		for i := 0; i < 3; i++ { // candidates 40..69, then again, then again
			twice.Data = append(twice.Data, base.Slice(40, 70).Data...)
		}
		twice.Data = append(twice.Data, base.Slice(10, 20).Data...) // and dead ones
		if got := deleteBoth(t, label+"/repeated candidates", tr, m, twice); got != 90 {
			t.Fatalf("%s: 30 distinct candidates, each three times, removed %d, want 90", label, got)
		}
	}
}

// TestEraseSpecialValues: -0 deletes +0 rows (and the reverse), NaN and
// infinite candidates delete nothing, a level whose coordinates exceed the
// f32-safe bound — distinct rows there share an f32 image — loses exactly
// the rows asked for, and a row with copies in several levels loses every
// copy. At X = 16 every level is one leaf; at X = 128 the static trees have
// several and so a membership filter each, which must pass every one of
// these rows: the signed zeros and the copies sit in filtered levels.
func TestEraseSpecialValues(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, x := range []int{16, 128} {
		for _, split := range splitRules {
			label := fmt.Sprintf("%v/X=%d", split, x)
			tr := New(2, Options{BufferSize: x, Split: split})
			m := &oracle.LiveSet{Dim: 2}
			huge := geom.NewPoints(4*x, 2)
			for i := 0; i < huge.Len(); i++ {
				huge.Set(i, []float64{3e18 + 1024*float64(i), -2e19 * float64(i%7)})
			}
			// small's rows [0, 5) become the buffer tree, [5, x+5) slot 0 and
			// [x+5, 3x+5) slot 1.
			small := generators.UniformCube(3*x+5, 2, 9)
			small.Set(5, []float64{0, 0})
			small.Set(x+6, []float64{negZero, 0.5})
			small.Set(3*x+4, []float64{0, negZero})
			for j := 0; j < 10; j++ { // slot 0's rows 10..19 again in slot 1
				small.Set(2*x+j, small.At(10+j))
			}
			for j := 0; j < 5; j++ { // huge rows 40..44 again in slot 1
				small.Set(x+8+j, huge.At(40+j))
			}
			third := geom.Points{Dim: 2} // and five rows a third time, in the open leaf
			third.Data = append(third.Data, small.Slice(10, 13).Data...)
			third.Data = append(third.Data, huge.Slice(41, 43).Data...)
			m.Insert(tr.Insert(huge), huge)   // slot 2, beyond the f32 filter's gate
			m.Insert(tr.Insert(small), small) // slots 0, 1 and the buffer
			m.Insert(tr.Insert(third), third) // the open leaf
			if fmt.Sprint(tr.TreeSizes()) != fmt.Sprint([]int{10, x, 2 * x, 4 * x}) || tr.tail.size() != 5 {
				t.Fatalf("%s: ladder sizes %v", label, tr.TreeSizes())
			}
			for i, l := range tr.trees {
				if (l.filter != nil) != (x > levelLeafSize) {
					t.Fatalf("%s: slot %d of %d rows has filter %v", label, i, len(l.Idx), l.filter != nil)
				}
			}
			none := geom.Points{Dim: 2, Data: []float64{
				nan, 0, 0, nan, nan, nan, inf, 0, 0, -inf, inf, inf, -inf, -inf, nan, inf,
				3e18 + 512, 0, 3e18, 1, 3e18 + 1024*40, -2e19 * 4,
			}}
			if got := deleteBoth(t, label+"/nan and inf", tr, m, none); got != 0 {
				t.Fatalf("%s: NaN, infinite and near-miss candidates removed %d rows", label, got)
			}
			zeros := geom.Points{Dim: 2, Data: []float64{negZero, negZero, 0, 0.5}}
			if got := deleteBoth(t, label+"/signed zeros", tr, m, zeros); got != 3 {
				t.Fatalf("%s: signed-zero candidates removed %d rows, want 3", label, got)
			}
			if got := deleteBoth(t, label+"/huge", tr, m, huge.Slice(3, 30)); got != 27 {
				t.Fatalf("%s: huge candidates removed %d rows, want 27", label, got)
			}
			// Three copies of small 10..12 and huge 41..42, two of small
			// 13..19 and huge 40, 43, 44.
			copies := geom.Points{Dim: 2}
			copies.Data = append(copies.Data, small.Slice(10, 20).Data...)
			copies.Data = append(copies.Data, huge.Slice(40, 45).Data...)
			if got := deleteBoth(t, label+"/copies", tr, m, copies); got != 3*5+2*10 {
				t.Fatalf("%s: candidates with copies in several levels removed %d rows, want %d", label, got, 3*5+2*10)
			}
		}
	}
}

// TestEraseEmptiesLevel: a batch holding every point of one level leaves
// its slot nil, not a level of tombstones; erase alone (no rebalance) does
// too, and reports what it removed.
func TestEraseEmptiesLevel(t *testing.T) {
	for _, split := range splitRules {
		pts := generators.UniformCube(0b101*64+20, 2, 61)
		tr := New(2, Options{BufferSize: 64, Split: split})
		m := &oracle.LiveSet{Dim: 2}
		m.Insert(tr.Insert(pts), pts)
		victims := tr.trees[0].Pts // the level's own rows: every one, no other
		probe := tr.shallowClone()
		if got := probe.erase(victims); got != 64 || probe.trees[0] != nil || probe.Size() != tr.Size()-64 {
			t.Fatalf("%v: erase removed %d, slot 0 = %v, size %d", split, got, probe.trees[0], probe.Size())
		}
		deleteBoth(t, split.String(), tr, m, geom.Points{Data: append([]float64(nil), victims.Data...), Dim: 2})
		if tr.trees[0] != nil || tr.trees[2].size() != 256 {
			t.Fatalf("%v: sizes %v, want slot 0 empty and slot 2 untouched", split, tr.TreeSizes())
		}
	}
}

// TestPersistentUpdateOneRebuild: several members' deletions and one
// insertion in one PersistentUpdate report each member's own count, leave
// the parent version as it was, build the same live set as applying the
// pieces one call at a time, and end inside the half-capacity invariant
// although the erases left levels below half on the way.
func TestPersistentUpdateOneRebuild(t *testing.T) {
	for _, split := range splitRules {
		label := split.String()
		pts := generators.UniformCube(0b111*32+11, 3, 71)
		tr := New(3, Options{BufferSize: 32, Split: split})
		m := &oracle.LiveSet{Dim: 3}
		ids := tr.Insert(pts)
		m.Insert(ids, pts)
		before := fmt.Sprint(tr.TreeSizes())
		parentIDs := sortedIDs(tr)

		dels := []geom.Points{
			pts.Slice(0, 100), // thins every level
			{},                // a member without deletions here
			pts.Slice(60, 160),
			pts.Slice(0, 30), // all gone already
		}
		ins := generators.UniformCube(50, 3, 72)
		insIDs := make([]int32, ins.Len())
		for i := range insIDs {
			insIDs[i] = int32(1000 + i)
		}
		next, removed := tr.PersistentUpdate(dels, ins, insIDs)
		want := make([]int, len(dels))
		for i, d := range dels {
			want[i] = m.Remove(d)
		}
		m.Insert(insIDs, ins)
		if fmt.Sprint(removed) != fmt.Sprint(want) || fmt.Sprint(want) != "[100 0 60 0]" {
			t.Fatalf("%s: per-member removals %v, model %v", label, removed, want)
		}
		verifyModel(t, next, m, 5, label)
		checkHalfFull(t, label, next)
		if fmt.Sprint(tr.TreeSizes()) != before || !idsEqual(sortedIDs(tr), parentIDs) {
			t.Fatalf("%s: the parent version changed: %v, was %s", label, tr.TreeSizes(), before)
		}
		for i, l := range tr.levels() {
			if l != nil && l.Dead != nil {
				t.Fatalf("%s: parent level %d gained tombstones", label, i-2)
			}
		}
		// The same pieces one call at a time reach the same live set.
		step := tr
		for _, d := range dels {
			step, _ = step.PersistentDelete(d)
		}
		step.InsertWithIDs(ins, insIDs)
		if !idsEqual(sortedIDs(step), sortedIDs(next)) {
			t.Fatalf("%s: fused update and step-by-step updates disagree", label)
		}
	}
}
