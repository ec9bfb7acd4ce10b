package baseline

import (
	"slices"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/oracle"
)

// variants are the baselines under test. mk receives every point the test
// will insert, whose bounding box the Zd-tree quantizes over.
var variants = []struct {
	name string
	mk   func(all geom.Points) Dynamic
}{
	{"B1-object", func(all geom.Points) Dynamic { return NewB1(all.Dim, kdtree.ObjectMedian) }},
	{"B1-spatial", func(all geom.Points) Dynamic { return NewB1(all.Dim, kdtree.SpatialMedian) }},
	{"B2-object", func(all geom.Points) Dynamic { return NewB2(all.Dim, kdtree.ObjectMedian) }},
	{"B2-spatial", func(all geom.Points) Dynamic { return NewB2(all.Dim, kdtree.SpatialMedian) }},
	{"Zd-tree", func(all geom.Points) Dynamic { return NewZdTree(all.Dim, geom.BoundingBoxAll(all)) }},
}

// model is a structure under test beside the oracle's model of its live
// set: every update goes to both.
type model struct {
	Dynamic
	live oracle.LiveSet
}

func newModel(tr Dynamic, dim int) *model { return &model{Dynamic: tr, live: oracle.LiveSet{Dim: dim}} }

func (m *model) insert(batch geom.Points) { m.live.Insert(m.Insert(batch), batch) }

// remove deletes batch from both and reports whether they removed as many.
func (m *model) remove(batch geom.Points) bool {
	return m.Delete(batch) == m.live.Remove(batch)
}

// check compares the structure with the brute-force oracle: the size, and
// the sorted k-NN distances of about 64 live rows (each excluding its own
// id) and of every row of ext (excluding nothing). Every returned id must be
// live.
func (m *model) check(t *testing.T, name string, k int, ext geom.Points) {
	t.Helper()
	if m.Size() != len(m.live.IDs) {
		t.Fatalf("%s: size %d, want %d", name, m.Size(), len(m.live.IDs))
	}
	pts := m.live.Points()
	row := make(map[int32]int, len(m.live.IDs))
	for r, id := range m.live.IDs {
		row[id] = r
	}
	qs := geom.Points{Dim: pts.Dim}
	var exclude, oracleExclude []int32
	for r := 0; r < pts.Len(); r += max(1, pts.Len()/64) {
		qs.Data = append(qs.Data, pts.At(r)...)
		exclude = append(exclude, m.live.IDs[r])
		oracleExclude = append(oracleExclude, int32(r))
	}
	for i := 0; i < ext.Len(); i++ {
		qs.Data = append(qs.Data, ext.At(i)...)
		exclude = append(exclude, -1)
		oracleExclude = append(oracleExclude, -1)
	}
	for i, ids := range m.KNN(qs, k, exclude) {
		q := qs.At(i)
		got := make([]float64, len(ids))
		for j, id := range ids {
			r, ok := row[id]
			if !ok || id == exclude[i] {
				t.Fatalf("%s: query %d returned id %d, which is deleted or excluded", name, i, id)
			}
			got[j] = geom.SqDist(q, pts.At(r))
		}
		slices.Sort(got)
		if want := oracle.KNNDists(pts, q, k, oracleExclude[i]); !slices.Equal(got, want) {
			t.Fatalf("%s: query %d: distances %v, want %v", name, i, got, want)
		}
	}
}

func TestInsertThenKNN(t *testing.T) {
	for _, dim := range []int{2, 5, 7} {
		pts := generators.UniformCube(3000, dim, uint64(dim))
		for _, v := range variants {
			m := newModel(v.mk(pts), dim)
			m.insert(pts)
			m.check(t, v.name, 5, generators.UniformCube(20, dim, 99))
		}
	}
}

func TestBatchInsertIncremental(t *testing.T) {
	all := generators.UniformCube(2000, 3, 7)
	for _, v := range variants {
		m := newModel(v.mk(all), 3)
		for b := 0; b < 10; b++ {
			m.insert(all.Slice(b*200, (b+1)*200))
		}
		m.check(t, v.name, 3, geom.Points{Dim: 3})
	}
}

func TestDeleteThenKNN(t *testing.T) {
	pts := generators.UniformCube(1000, 2, 9)
	for _, v := range variants {
		m := newModel(v.mk(pts), 2)
		m.insert(pts)
		if got := m.Delete(pts.Slice(0, 300)); got != 300 {
			t.Fatalf("%s: removed %d, want 300", v.name, got)
		}
		m.live.Remove(pts.Slice(0, 300))
		// The deleted points query too: none of them may come back.
		m.check(t, v.name, 4, pts.Slice(0, 300))
	}
}

func TestDeleteEverything(t *testing.T) {
	pts := generators.UniformCube(500, 3, 6)
	for _, v := range variants {
		m := newModel(v.mk(pts), 3)
		m.insert(pts)
		if !m.remove(pts) || m.Size() != 0 {
			t.Fatalf("%s: size %d after deleting everything", v.name, m.Size())
		}
		m.check(t, v.name, 3, pts.Slice(0, 10))
		// Re-insert works after emptying.
		m.insert(pts.Slice(0, 100))
		m.check(t, v.name, 3, geom.Points{Dim: 3})
	}
}

func TestMixedWorkload(t *testing.T) {
	all := generators.UniformCube(3000, 3, 12)
	for _, v := range variants {
		m := newModel(v.mk(all), 3)
		m.insert(all.Slice(0, 1000))
		m.remove(all.Slice(200, 500))
		m.insert(all.Slice(1000, 2000))
		m.remove(all.Slice(1500, 1700))
		m.insert(all.Slice(2000, 2500))
		m.check(t, v.name, 3, all.Slice(2500, 2520))
	}
}

// TestEmptyFirstBatch inserts nothing first: B2 builds its tree from the
// first batch that has points.
func TestEmptyFirstBatch(t *testing.T) {
	pts := generators.UniformCube(600, 2, 3)
	for _, v := range variants {
		m := newModel(v.mk(pts), 2)
		m.insert(geom.Points{Dim: 2})
		m.check(t, v.name, 3, pts.Slice(0, 5))
		if m.Delete(pts.Slice(0, 5)) != 0 {
			t.Fatalf("%s: deleted from an empty structure", v.name)
		}
		m.insert(pts.Slice(0, 200))
		m.insert(pts.Slice(200, 600))
		m.check(t, v.name, 3, geom.Points{Dim: 2})
	}
}

// TestDeleteAbsent deletes points that were never inserted, inside and
// outside the data's box: nothing is removed.
func TestDeleteAbsent(t *testing.T) {
	pts := generators.UniformCube(800, 3, 4)
	absent := generators.UniformCube(50, 3, 5)
	absent.Data = append(absent.Data, 7, 7, 7, -3, 0.5, 0.5)
	for _, v := range variants {
		m := newModel(v.mk(pts), 3)
		m.insert(pts)
		if got := m.Delete(absent); got != 0 {
			t.Fatalf("%s: deleting absent points removed %d", v.name, got)
		}
		m.check(t, v.name, 4, absent)
	}
}

// TestIntegerGridDuplicates inserts a 5×5 integer grid three times over,
// one copy a batch. An object median of 25 rows with five per coordinate
// value leaves rows equal to the split value on both sides, and later
// copies route right of it, so a delete must search both sides of a plane
// and removes every copy. The deletes take the middle row and column,
// where the root's plane lies whichever dimension it cuts.
func TestIntegerGridDuplicates(t *testing.T) {
	grid, cross := geom.Points{Dim: 2}, geom.Points{Dim: 2}
	for i := 0; i < 25; i++ {
		p := []float64{float64(i % 5), float64(i / 5)}
		grid.Data = append(grid.Data, p...)
		if p[0] == 2 || p[1] == 2 {
			cross.Data = append(cross.Data, p...)
		}
	}
	for _, v := range variants {
		m := newModel(v.mk(grid), 2)
		for b := 0; b < 3; b++ {
			m.insert(grid)
		}
		m.check(t, v.name, 6, grid)
		if !m.remove(cross) {
			t.Fatalf("%s: grid delete count differs from the oracle's", v.name)
		}
		m.check(t, v.name, 6, grid)
		m.insert(grid.Slice(0, 10))
		m.check(t, v.name, 6, grid)
	}
}

// TestB2InsertOnSplitValue inserts, after B2's first build, points lying
// exactly on every internal node's split plane. Routing sends them right
// of it, where search and delete must find them.
func TestB2InsertOnSplitValue(t *testing.T) {
	first := generators.UniformCube(400, 2, 8)
	for _, split := range []kdtree.SplitRule{kdtree.ObjectMedian, kdtree.SpatialMedian} {
		b := NewB2(2, split)
		m := newModel(b, 2)
		m.insert(first)
		on := geom.Points{Dim: 2}
		for _, nd := range b.nodes {
			if !nd.IsLeaf() {
				p := []float64{0.5, 0.5}
				p[nd.SplitDim] = nd.SplitVal
				on.Data = append(on.Data, p...)
			}
		}
		if on.Len() == 0 {
			t.Fatalf("%v: B2 built no internal node", split)
		}
		// Delete the new points and some of the build's.
		m.insert(on)
		m.check(t, split.String(), 4, on)
		if !m.remove(on) || !m.remove(first.Slice(0, 40)) {
			t.Fatalf("%v: delete count differs from the oracle's", split)
		}
		m.check(t, split.String(), 4, on)
	}
}
