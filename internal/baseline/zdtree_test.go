package baseline

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
)

func box3(pts geom.Points) geom.Box { return geom.BoundingBoxAll(pts) }

// distsOf returns the sorted squared distances from q to ids. A fresh tree
// numbers its first batch's rows from 0, so the tests below also pass ids
// to the oracle as row indices.
func distsOf(q []float64, ids []int32, coordOf map[int32][]float64) []float64 {
	var out []float64
	for _, id := range ids {
		out = append(out, geom.SqDist(q, coordOf[id]))
	}
	sort.Float64s(out)
	return out
}

func TestZdKNNMatchesBrute(t *testing.T) {
	pts := generators.UniformCube(2000, 3, 1)
	tr := NewZdTree(3, box3(pts))
	ids := tr.Insert(pts)
	coordOf := map[int32][]float64{}
	for i, id := range ids {
		coordOf[id] = pts.At(i)
	}
	queries := pts.Slice(0, 40)
	res := tr.KNN(queries, 5, ids[:40])
	for i := range res {
		want := oracle.KNNDists(pts, queries.At(i), 5, ids[i])
		got := distsOf(queries.At(i), res[i], coordOf)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d: dist %d = %g, want %g", i, j, got[j], want[j])
			}
		}
	}
}

func TestZdBatchInsertMerge(t *testing.T) {
	all := generators.UniformCube(1000, 2, 2)
	tr := NewZdTree(2, box3(all))
	var ids []int32
	for b := 0; b < 10; b++ {
		ids = append(ids, tr.Insert(all.Slice(b*100, (b+1)*100))...)
	}
	if tr.Size() != 1000 {
		t.Fatalf("size %d", tr.Size())
	}
	// Codes must stay sorted after merges.
	for i := 1; i < len(tr.codes); i++ {
		if tr.codes[i] < tr.codes[i-1] {
			t.Fatalf("codes unsorted at %d", i)
		}
	}
	coordOf := map[int32][]float64{}
	for i, id := range ids {
		coordOf[id] = all.At(i)
	}
	res := tr.KNN(all.Slice(0, 20), 3, ids[:20])
	for i := range res {
		want := oracle.KNNDists(all, all.At(i), 3, ids[i])
		got := distsOf(all.At(i), res[i], coordOf)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("incremental query %d mismatch", i)
			}
		}
	}
}

func TestZdDelete(t *testing.T) {
	pts := generators.UniformCube(800, 3, 3)
	tr := NewZdTree(3, box3(pts))
	tr.Insert(pts)
	if got := tr.Delete(pts.Slice(0, 300)); got != 300 {
		t.Fatalf("deleted %d", got)
	}
	if tr.Size() != 500 {
		t.Fatalf("size %d", tr.Size())
	}
	// Deleted points must never be returned.
	res := tr.KNN(pts.Slice(0, 10), 4, nil)
	surviving := map[int32]bool{}
	for _, r := range res {
		for _, id := range r {
			surviving[id] = true
		}
	}
	for id := range surviving {
		if id < 300 {
			t.Fatalf("deleted id %d returned by kNN", id)
		}
	}
	// Full delete then reinsert works (exercises compaction).
	tr.Delete(pts.Slice(300, 800))
	if tr.Size() != 0 {
		t.Fatalf("size %d after full delete", tr.Size())
	}
	tr.Insert(pts.Slice(0, 50))
	if tr.Size() != 50 {
		t.Fatalf("size %d after reinsert", tr.Size())
	}
}

func TestZdDuplicateCoordinates(t *testing.T) {
	pts := geom.Points{Dim: 2, Data: []float64{1, 1, 1, 1, 2, 2, 3, 3}}
	tr := NewZdTree(2, box3(pts))
	tr.Insert(pts)
	if got := tr.Delete(geom.Points{Dim: 2, Data: []float64{1, 1}}); got != 2 {
		t.Fatalf("duplicate delete removed %d, want 2", got)
	}
	if tr.Size() != 2 {
		t.Fatalf("size %d", tr.Size())
	}
}

// TestZdSplitsAtMortonBit: every internal node splits its rows at the
// highest Morton bit on which they differ, so its children's boxes are
// disjoint along that bit's axis. Halving by index lets siblings straddle
// a cell boundary and overlap. The inputs repeat every point, so some
// nodes hold equal codes only; those halve by index and are skipped.
func TestZdSplitsAtMortonBit(t *testing.T) {
	for _, dim := range []int{2, 3, 5} {
		for name, pts := range map[string]geom.Points{
			"uniform":      generators.UniformCube(3000, dim, 7),
			"seedspreader": generators.SeedSpreader(3000, dim, 8),
		} {
			label := fmt.Sprintf("%s/d%d", name, dim)
			tr := NewZdTree(dim, geom.BoundingBoxAll(pts))
			tr.Insert(pts)
			tr.Insert(pts)
			splits := 0
			for _, nd := range tr.nodes {
				x := tr.codes[nd.Lo] ^ tr.codes[nd.Hi-1]
				if nd.IsLeaf() || x == 0 {
					continue
				}
				a := (63 - bits.LeadingZeros64(x)) % dim
				l, r := &tr.nodes[nd.Left], &tr.nodes[nd.Right]
				if !(l.MaxC[a] < r.MinC[a]) {
					t.Fatalf("%s: rows [%d, %d) split on axis %d into boxes [%v, %v] and [%v, %v]",
						label, nd.Lo, nd.Hi, a, l.MinC[a], l.MaxC[a], r.MinC[a], r.MaxC[a])
				}
				splits++
			}
			if splits == 0 {
				t.Fatalf("%s: no node split on a Morton bit", label)
			}
		}
	}
}
