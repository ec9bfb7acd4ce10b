package bdltree

import (
	"testing"

	"pargeo/internal/geom"
)

// TestSpatialMedianOnLine: all points on a diagonal line makes spatial
// splits maximally uneven; the builder's object-median fallback must
// keep the trees usable and queries exact.
func TestSpatialMedianOnLine(t *testing.T) {
	n := 2000
	pts := geom.NewPoints(n, 5)
	for i := 0; i < n; i++ {
		v := float64(i)
		pts.Set(i, []float64{v, v, v, v, v})
	}
	tr := New(5, Options{Split: SpatialMedian, BufferSize: 64})
	ids := tr.Insert(pts)
	got := tr.KNN(pts.Slice(0, 10), 2, ids[:10])
	for i := 0; i < 10; i++ {
		// On the line, the 2 nearest of point i are i-1, i+1 (or the two
		// successors at the ends).
		for _, id := range got[i] {
			d := int(id) - i
			if d < 0 {
				d = -d
			}
			if d == 0 || d > 2 {
				t.Fatalf("query %d returned %d", i, id)
			}
		}
	}
}

// TestManyIdenticalPoints: duplicates must be storable, queryable, and
// deletable.
func TestManyIdenticalPoints(t *testing.T) {
	n := 300
	pts := geom.NewPoints(n, 2)
	for i := 0; i < n; i++ {
		pts.Set(i, []float64{7, 7})
	}
	for _, tc := range trees() {
		tr := tc.mk(2)
		tr.Insert(pts)
		if tr.Size() != n {
			t.Fatalf("%s: size %d", tc.name, tr.Size())
		}
		q := geom.Points{Dim: 2, Data: []float64{7, 7}}
		res := tr.KNN(q, 5, nil)
		if len(res[0]) != 5 {
			t.Fatalf("%s: got %d neighbors", tc.name, len(res[0]))
		}
		// Deleting the coordinate removes every copy.
		if got := tr.Delete(q); got != n {
			t.Fatalf("%s: deleted %d, want %d", tc.name, got, n)
		}
	}
}

// TestAlternatingInsertDelete stresses the bitmask/rebalance machinery
// with a see-saw workload.
func TestAlternatingInsertDelete(t *testing.T) {
	tr := New(2, Options{BufferSize: 32})
	total := 0
	for round := 0; round < 30; round++ {
		batchN := 17 + round*3
		pts := geom.NewPoints(batchN, 2)
		for i := 0; i < batchN; i++ {
			pts.Set(i, []float64{float64(round*1000 + i), float64(i)})
		}
		tr.Insert(pts)
		total += batchN
		if round%3 == 2 {
			del := pts.Slice(0, batchN/2)
			removed := tr.Delete(del)
			if removed != batchN/2 {
				t.Fatalf("round %d: removed %d, want %d", round, removed, batchN/2)
			}
			total -= removed
		}
		if tr.Size() != total {
			t.Fatalf("round %d: size %d, want %d", round, tr.Size(), total)
		}
	}
	// Structure sanity: tree sizes are within capacity.
	sizes := tr.TreeSizes()
	if sizes[0] >= 32 {
		t.Fatalf("buffer overflows X: %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > 32<<(i-1) {
			t.Fatalf("tree %d exceeds capacity: %v", i-1, sizes)
		}
	}
}
