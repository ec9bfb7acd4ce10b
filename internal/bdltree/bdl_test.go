package bdltree

import (
	"math"
	"sort"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

// bruteKNN is the oracle: exact k nearest among (coords, gids), excluding
// one id.
func bruteKNN(coords geom.Points, gids []int32, q []float64, k int, exclude int32) []int32 {
	type cand struct {
		id int32
		d  float64
	}
	var cs []cand
	for i := 0; i < coords.Len(); i++ {
		if gids[i] == exclude {
			continue
		}
		cs = append(cs, cand{gids[i], geom.SqDist(q, coords.At(i))})
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].d != cs[b].d {
			return cs[a].d < cs[b].d
		}
		return cs[a].id < cs[b].id
	})
	if len(cs) > k {
		cs = cs[:k]
	}
	out := make([]int32, len(cs))
	for i, c := range cs {
		out[i] = c.id
	}
	return out
}

// knnDistancesMatch compares result distance multisets (ties may resolve to
// different ids).
func knnDistancesMatch(coords geom.Points, byID map[int32][]float64, q []float64, got, want []int32) bool {
	if len(got) != len(want) {
		return false
	}
	gd := make([]float64, len(got))
	wd := make([]float64, len(want))
	for i := range got {
		gd[i] = geom.SqDist(q, byID[got[i]])
		wd[i] = geom.SqDist(q, byID[want[i]])
	}
	sort.Float64s(gd)
	sort.Float64s(wd)
	for i := range gd {
		if math.Abs(gd[i]-wd[i]) > 1e-9*(1+wd[i]) {
			return false
		}
	}
	return true
}

func idMap(coords geom.Points, gids []int32) map[int32][]float64 {
	m := make(map[int32][]float64, len(gids))
	for i, g := range gids {
		m[g] = coords.At(i)
	}
	return m
}

func trees() []struct {
	name string
	mk   func(dim int) Dynamic
} {
	return []struct {
		name string
		mk   func(dim int) Dynamic
	}{
		{"BDL-object", func(d int) Dynamic { return New(d, Options{Split: ObjectMedian, BufferSize: 64}) }},
		{"BDL-spatial", func(d int) Dynamic { return New(d, Options{Split: SpatialMedian, BufferSize: 64}) }},
		{"B1-object", func(d int) Dynamic { return NewB1(d, ObjectMedian) }},
		{"B2-object", func(d int) Dynamic { return NewB2(d, ObjectMedian) }},
		{"B2-spatial", func(d int) Dynamic { return NewB2(d, SpatialMedian) }},
	}
}

func TestInsertThenKNNMatchesBrute(t *testing.T) {
	for _, dim := range []int{2, 5} {
		pts := generators.UniformCube(3000, dim, uint64(dim))
		for _, tc := range trees() {
			tr := tc.mk(dim)
			ids := tr.Insert(pts)
			if tr.Size() != 3000 {
				t.Fatalf("%s: size %d after insert", tc.name, tr.Size())
			}
			m := idMap(pts, ids)
			queries := pts.Slice(0, 50)
			got := tr.KNN(queries, 5, ids[:50])
			for i := 0; i < 50; i++ {
				want := bruteKNN(pts, ids, queries.At(i), 5, ids[i])
				if !knnDistancesMatch(pts, m, queries.At(i), got[i], want) {
					t.Fatalf("%s d=%d: knn mismatch at query %d: got %v want %v",
						tc.name, dim, i, got[i], want)
				}
			}
		}
	}
}

func TestBatchInsertIncremental(t *testing.T) {
	dim := 3
	all := generators.UniformCube(2000, dim, 7)
	for _, tc := range trees() {
		tr := tc.mk(dim)
		var ids []int32
		for b := 0; b < 10; b++ {
			batch := all.Slice(b*200, (b+1)*200)
			ids = append(ids, tr.Insert(batch)...)
		}
		if tr.Size() != 2000 {
			t.Fatalf("%s: size %d after 10 batches", tc.name, tr.Size())
		}
		m := idMap(all, ids)
		queries := all.Slice(0, 30)
		got := tr.KNN(queries, 3, ids[:30])
		for i := range got {
			want := bruteKNN(all, ids, queries.At(i), 3, ids[i])
			if !knnDistancesMatch(all, m, queries.At(i), got[i], want) {
				t.Fatalf("%s: incremental knn mismatch at %d", tc.name, i)
			}
		}
	}
}

func TestDeleteThenKNN(t *testing.T) {
	dim := 2
	pts := generators.UniformCube(1000, dim, 9)
	for _, tc := range trees() {
		tr := tc.mk(dim)
		ids := tr.Insert(pts)
		// Delete the first 300 points by coordinates.
		removed := tr.Delete(pts.Slice(0, 300))
		if removed != 300 {
			t.Fatalf("%s: removed %d, want 300", tc.name, removed)
		}
		if tr.Size() != 700 {
			t.Fatalf("%s: size %d after delete", tc.name, tr.Size())
		}
		// Queries must only ever return surviving points.
		rest := pts.Slice(300, 1000)
		restIDs := ids[300:]
		m := idMap(rest, restIDs)
		queries := rest.Slice(0, 30)
		got := tr.KNN(queries, 4, restIDs[:30])
		for i := range got {
			want := bruteKNN(rest, restIDs, queries.At(i), 4, restIDs[i])
			if !knnDistancesMatch(rest, m, queries.At(i), got[i], want) {
				t.Fatalf("%s: post-delete knn mismatch at %d: got %v want %v",
					tc.name, i, got[i], want)
			}
		}
	}
}

func TestBDLLogStructure(t *testing.T) {
	// Figure 7's scenario with X = 64: inserting X, then X+1, then X+1,
	// then X-1 points walks the bitmask through 1, 10, 11, 100.
	x := 64
	tr := New(2, Options{Split: ObjectMedian, BufferSize: x})
	mk := func(n int, seed uint64) geom.Points { return generators.UniformCube(n, 2, seed) }

	tr.Insert(mk(x, 1)) // F = 001, buffer empty
	if got := tr.TreeSizes(); got[0] != 0 || got[1] != x {
		t.Fatalf("after X inserts: sizes %v", got)
	}
	tr.Insert(mk(x+1, 2)) // 1 in buffer, tree0 -> tree1
	if got := tr.TreeSizes(); got[0] != 1 || got[1] != 0 || got[2] != 2*x {
		t.Fatalf("after X+1 inserts: sizes %v", got)
	}
	tr.Insert(mk(x+1, 3)) // 2 in buffer, tree0 rebuilt, tree1 intact
	if got := tr.TreeSizes(); got[0] != 2 || got[1] != x || got[2] != 2*x {
		t.Fatalf("after 2nd X+1 inserts: sizes %v", got)
	}
	tr.Insert(mk(x-1, 4)) // buffer fills: trees 0,1 -> tree 2, 1 point left in buffer
	got := tr.TreeSizes()
	if got[0] != 1 || got[1] != 0 || got[2] != 0 || len(got) < 4 || got[3] != 4*x {
		t.Fatalf("after X-1 inserts: sizes %v (want buffer=1, tree2=%d per Fig. 7d)", got, 4*x)
	}
}

func TestBDLDeleteRebalance(t *testing.T) {
	x := 64
	tr := New(2, Options{Split: ObjectMedian, BufferSize: x})
	pts := generators.UniformCube(4*x, 2, 5)
	tr.Insert(pts)
	// Tree 2 holds 4x points. Deleting 3x of them drops it below half
	// capacity (2x), which must trigger a gather + reinsert.
	tr.Delete(pts.Slice(0, 3*x))
	if tr.Size() != x {
		t.Fatalf("size %d, want %d", tr.Size(), x)
	}
	sizes := tr.TreeSizes()
	// The surviving x points must have moved into tree 0 (capacity x).
	if len(sizes) < 2 || sizes[1] != x {
		t.Fatalf("rebalance sizes %v, want tree0 = %d", sizes, x)
	}
	if len(sizes) >= 4 && sizes[3] != 0 {
		t.Fatalf("tree2 should be empty after rebalance: %v", sizes)
	}
}

func TestDeleteEverything(t *testing.T) {
	pts := generators.UniformCube(500, 3, 6)
	for _, tc := range trees() {
		tr := tc.mk(3)
		tr.Insert(pts)
		if got := tr.Delete(pts); got != 500 {
			t.Fatalf("%s: deleted %d, want 500", tc.name, got)
		}
		if tr.Size() != 0 {
			t.Fatalf("%s: size %d after full delete", tc.name, tr.Size())
		}
		// Re-insert works after emptying.
		tr.Insert(pts.Slice(0, 100))
		if tr.Size() != 100 {
			t.Fatalf("%s: size %d after re-insert", tc.name, tr.Size())
		}
	}
}

func TestMixedWorkload(t *testing.T) {
	// Interleaved inserts and deletes with continuous correctness checks.
	dim := 3
	all := generators.UniformCube(3000, dim, 12)
	for _, tc := range trees() {
		tr := tc.mk(dim)
		live := map[int32][]float64{}
		ids := tr.Insert(all.Slice(0, 1000))
		for i, id := range ids {
			live[id] = all.At(i)
		}
		tr.Delete(all.Slice(200, 500)) // delete 300
		for i := 200; i < 500; i++ {
			delete(live, ids[i])
		}
		ids2 := tr.Insert(all.Slice(1000, 2000))
		for i, id := range ids2 {
			live[id] = all.At(1000 + i)
		}
		if tr.Size() != len(live) {
			t.Fatalf("%s: size %d, want %d", tc.name, tr.Size(), len(live))
		}
		// Validate a few queries against the live map.
		liveCoords := geom.NewPoints(len(live), dim)
		liveIDs := make([]int32, 0, len(live))
		k := 0
		for id, c := range live {
			liveCoords.Set(k, c)
			liveIDs = append(liveIDs, id)
			k++
		}
		q := all.Slice(2000, 2020)
		got := tr.KNN(q, 3, nil)
		m := idMap(liveCoords, liveIDs)
		for i := range got {
			want := bruteKNN(liveCoords, liveIDs, q.At(i), 3, -1)
			if !knnDistancesMatch(liveCoords, m, q.At(i), got[i], want) {
				t.Fatalf("%s: mixed workload knn mismatch at %d", tc.name, i)
			}
		}
	}
}
