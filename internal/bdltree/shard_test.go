package bdltree

import (
	"sort"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/morton"
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

// TestExtractRange: the migration extraction must return exactly the live
// points whose codes fall in the interval, code-sorted, with their ids —
// differentially against a brute-force re-encoding of Points().
func TestExtractRange(t *testing.T) {
	const dim = 2
	pts := generators.UniformCube(400, dim, 31)
	tr := New(dim, Options{BufferSize: 32})
	ids := tr.Insert(pts)
	// Delete a slice so tombstones are in play.
	tr.Delete(geom.Points{Data: pts.Data[:80*dim], Dim: dim})
	world := geom.BoundingBoxAll(pts)

	live, liveIDs := tr.Points()
	codeOf := make(map[int32]uint64, live.Len())
	for i := 0; i < live.Len(); i++ {
		codeOf[liveIDs[i]] = morton.Encode(live.At(i), world)
	}
	allCodes := make([]uint64, 0, len(codeOf))
	for _, c := range codeOf {
		allCodes = append(allCodes, c)
	}
	sort.Slice(allCodes, func(i, j int) bool { return allCodes[i] < allCodes[j] })
	mid := allCodes[len(allCodes)/2]

	for _, iv := range []struct{ lo, hi uint64 }{
		{0, ^uint64(0)},
		{0, mid},
		{mid + 1, ^uint64(0)},
		{mid, mid},
		{5, 1}, // empty interval
	} {
		codes, sub, subIDs := tr.ExtractRange(world, iv.lo, iv.hi)
		want := 0
		for _, c := range codeOf {
			if c >= iv.lo && c <= iv.hi {
				want++
			}
		}
		if len(subIDs) != want || sub.Len() != want || len(codes) != want {
			t.Fatalf("[%d,%d]: extracted %d points, want %d", iv.lo, iv.hi, len(subIDs), want)
		}
		for i := range subIDs {
			if codes[i] < iv.lo || codes[i] > iv.hi {
				t.Fatalf("[%d,%d]: code %d outside interval", iv.lo, iv.hi, codes[i])
			}
			if i > 0 && codes[i-1] > codes[i] {
				t.Fatalf("[%d,%d]: codes not sorted at %d", iv.lo, iv.hi, i)
			}
			if got := morton.Encode(sub.At(i), world); got != codes[i] {
				t.Fatalf("[%d,%d]: row %d code %d, re-encoded %d", iv.lo, iv.hi, i, codes[i], got)
			}
			if codeOf[subIDs[i]] != codes[i] {
				t.Fatalf("[%d,%d]: id %d carries wrong code", iv.lo, iv.hi, subIDs[i])
			}
		}
	}
	_ = ids
}

// TestMerge: fusing two trees must yield the exact union of their live
// points (ids preserved), whether their code ranges are adjacent — the
// shard-merge case — or interleaved.
func TestMerge(t *testing.T) {
	const dim = 2
	all := generators.UniformCube(500, dim, 33)
	world := geom.BoundingBoxAll(all)
	opts := Options{BufferSize: 16}

	build := func(sub geom.Points, base int) *Tree {
		ids := make([]int32, sub.Len())
		for i := range ids {
			ids[i] = int32(base + i)
		}
		tr := New(dim, opts)
		tr.InsertWithIDs(sub, ids)
		return tr
	}
	for name, cut := range map[string]int{"adjacent": 200, "interleaved": 0} {
		var a, b *Tree
		if cut > 0 {
			// Morton-sort first so the two trees own adjacent code ranges.
			sorted := morton.SortPoints(all)
			a, b = build(sorted.Slice(0, cut), 0), build(sorted.Slice(cut, sorted.Len()), cut)
		} else {
			// Even/odd rows: the two trees' code ranges fully interleave.
			ev := geom.Points{Dim: dim}
			od := geom.Points{Dim: dim}
			for i := 0; i < all.Len(); i++ {
				if i%2 == 0 {
					ev.Data = append(ev.Data, all.At(i)...)
				} else {
					od.Data = append(od.Data, all.At(i)...)
				}
			}
			a, b = build(ev, 0), build(od, 1000)
		}
		m := Merge(world, a, b)
		if m.Size() != a.Size()+b.Size() {
			t.Fatalf("%s: merged size %d, want %d", name, m.Size(), a.Size()+b.Size())
		}
		wantIDs := make(map[int32][]float64)
		for _, tr := range []*Tree{a, b} {
			p, g := tr.Points()
			for i, id := range g {
				wantIDs[id] = append([]float64(nil), p.At(i)...)
			}
		}
		mp, mg := m.Points()
		if len(mg) != len(wantIDs) {
			t.Fatalf("%s: %d ids, want %d", name, len(mg), len(wantIDs))
		}
		for i, id := range mg {
			w, ok := wantIDs[id]
			if !ok {
				t.Fatalf("%s: unexpected id %d", name, id)
			}
			if geom.SqDist(w, mp.At(i)) != 0 {
				t.Fatalf("%s: id %d moved", name, id)
			}
		}
		// Merged tree answers queries over the union exactly.
		probes := generators.UniformCube(10, dim, 35)
		for i := 0; i < probes.Len(); i++ {
			q := probes.At(i)
			got := m.KNN(geom.Points{Data: q, Dim: dim}, 3, nil)[0]
			wantD := oracle.KNNDists(all, q, 3, -1)
			for j, id := range got {
				if geom.SqDist(q, wantIDs[id]) != wantD[j] {
					t.Fatalf("%s: probe %d knn[%d] mismatch", name, i, j)
				}
			}
		}
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
