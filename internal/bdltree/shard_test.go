package bdltree

import (
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/oracle"
)

// TestInsertWithIDsRoundTrip: caller-assigned ids must come back from
// queries, and internally assigned ids (later plain Inserts, deletion
// rebalancing) must never collide with them.
func TestInsertWithIDsRoundTrip(t *testing.T) {
	const dim = 2
	tr := New(dim, Options{BufferSize: 32})
	batch := generators.UniformCube(300, dim, 1)
	ids := make([]int32, batch.Len())
	for i := range ids {
		ids[i] = int32(1000 + 7*i) // sparse, non-contiguous global ids
	}
	tr.InsertWithIDs(batch, ids)
	if tr.Size() != 300 {
		t.Fatalf("size %d", tr.Size())
	}
	_, gids := tr.Points()
	seen := make(map[int32]bool, len(gids))
	for _, g := range gids {
		seen[g] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("assigned id %d lost", id)
		}
	}
	// A later plain Insert must mint ids beyond every caller-assigned one.
	more := tr.Insert(generators.UniformCube(50, dim, 2))
	for _, id := range more {
		if seen[id] {
			t.Fatalf("fresh id %d collides with caller-assigned id", id)
		}
	}
	// Deletion rebalancing (reinsert) must preserve surviving ids.
	tr.Delete(geom.Points{Data: batch.Data[:200*dim], Dim: dim})
	_, gids = tr.Points()
	want := make(map[int32]bool)
	for i := 200; i < 300; i++ {
		want[ids[i]] = true
	}
	for _, id := range more {
		want[id] = true
	}
	if len(gids) != len(want) {
		t.Fatalf("%d live after delete, want %d", len(gids), len(want))
	}
	for _, g := range gids {
		if !want[g] {
			t.Fatalf("unexpected id %d after rebalance", g)
		}
	}
}

// TestNewFromSortedMatchesInsert: per-shard construction from a pre-sorted
// slice must answer identically to incremental insertion.
func TestNewFromSortedMatchesInsert(t *testing.T) {
	const dim = 3
	pts := generators.UniformCube(500, dim, 9)
	ids := make([]int32, pts.Len())
	for i := range ids {
		ids[i] = int32(i) * 3
	}
	tr := NewFromSorted(dim, Options{BufferSize: 64}, pts, ids)
	if tr.Size() != pts.Len() {
		t.Fatalf("size %d", tr.Size())
	}
	probes := generators.UniformCube(20, dim, 10)
	for i := 0; i < probes.Len(); i++ {
		q := probes.At(i)
		got := tr.KNN(geom.Points{Data: q, Dim: dim}, 4, nil)[0]
		wantD := oracle.KNNDists(pts, q, 4, -1)
		for j, id := range got {
			if geom.SqDist(q, pts.At(int(id)/3)) != wantD[j] {
				t.Fatalf("probe %d: knn[%d] distance mismatch", i, j)
			}
		}
	}
	if NewFromSorted(dim, Options{}, geom.Points{Dim: dim}, nil).Size() != 0 {
		t.Fatal("empty NewFromSorted not empty")
	}
}

// TestKNNIntoSharedBuffer: feeding several trees through one buffer must
// answer k-NN over their union — the sharded engine's shared
// shrinking-radius walk.
func TestKNNIntoSharedBuffer(t *testing.T) {
	const dim = 2
	all := generators.UniformCube(600, dim, 21)
	// Split into three disjoint "shards" of very different sizes.
	cuts := []int{0, 50, 400, 600}
	trees := make([]*Tree, 3)
	for s := 0; s < 3; s++ {
		sub := all.Slice(cuts[s], cuts[s+1])
		ids := make([]int32, sub.Len())
		for i := range ids {
			ids[i] = int32(cuts[s] + i)
		}
		trees[s] = NewFromSorted(dim, Options{BufferSize: 16}, sub, ids)
	}
	probes := generators.UniformCube(30, dim, 22)
	for k := range []int{1, 5, 700} { // 700 > total: short answers
		k = []int{1, 5, 700}[k]
		buf := kdtree.NewKNNBuffer(k)
		for i := 0; i < probes.Len(); i++ {
			q := probes.At(i)
			buf.Reset()
			for _, tr := range trees {
				tr.KNNInto(q, -1, buf)
			}
			ids := buf.Result(nil)
			wantD := oracle.KNNDists(all, q, k, -1)
			if len(ids) != len(wantD) {
				t.Fatalf("k=%d probe %d: got %d results, want %d", k, i, len(ids), len(wantD))
			}
			for j, id := range ids {
				if geom.SqDist(q, all.At(int(id))) != wantD[j] {
					t.Fatalf("k=%d probe %d: result %d distance mismatch", k, i, j)
				}
			}
		}
	}
}
