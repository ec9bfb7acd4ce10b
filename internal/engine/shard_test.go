package engine

import (
	"sync"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
)

// TestShardedLifecycleOracle runs the sequential lifecycle differentially
// against the brute-force mirror on a sharded engine: every KNN and range
// answer must match brute force exactly, across rounds of inserts and
// deletes whose points straddle every shard boundary (the batches are
// uniform over the whole domain).
func TestShardedLifecycleOracle(t *testing.T) {
	for _, shards := range []int{2, 4, 7} {
		e := New(2, Options{BufferSize: 64, Shards: shards})
		m := &oracle.LiveSet{Dim: 2}
		lastEpoch := uint64(0)
		for round := 0; round < 6; round++ {
			batch := generators.UniformCube(300, 2, uint64(round)+1)
			res := e.Insert(batch)
			if len(res.IDs) != batch.Len() {
				t.Fatalf("shards=%d round %d: got %d ids", shards, round, len(res.IDs))
			}
			if res.Epoch <= lastEpoch {
				t.Fatalf("shards=%d: epoch must advance: %d -> %d", shards, lastEpoch, res.Epoch)
			}
			lastEpoch = res.Epoch
			m.Insert(res.IDs, batch)
			checkAgainstOracle(t, e, m, uint64(round)*17+3)

			if round >= 2 {
				old := generators.UniformCube(300, 2, uint64(round)-1)
				sub := geom.Points{Data: old.Data[:100*2], Dim: 2}
				res := e.Delete(sub)
				if want := m.Remove(sub); res.Deleted != want {
					t.Fatalf("shards=%d: deleted %d, mirror removed %d", shards, res.Deleted, want)
				}
				checkAgainstOracle(t, e, m, uint64(round)*31+7)
			}
		}
		if got := e.Snapshot().Shards(); got != shards {
			t.Fatalf("snapshot has %d shards, want %d", got, shards)
		}
	}
}

// TestShardedFanoutEdgeCases drives the fan-out paths through their
// boundary conditions: query boxes crossing shard boundaries, k larger
// than any single shard's population (forcing a multi-shard merge), k
// larger than the whole set, probes far outside the founding world box,
// and shards left empty by a skewed founding sample.
func TestShardedFanoutEdgeCases(t *testing.T) {
	const dim = 2
	e := New(dim, Options{BufferSize: 32, Shards: 4})
	m := &oracle.LiveSet{Dim: dim}

	// Founding commit: uniform points establish interior boundaries.
	base := generators.UniformCube(400, dim, 3)
	res := e.Insert(base)
	m.Insert(res.IDs, base)

	sizes := e.Snapshot().ShardSizes()
	if len(sizes) != 4 {
		t.Fatalf("shard vector %v", sizes)
	}
	for s, n := range sizes {
		if n == 0 {
			t.Fatalf("founding left shard %d empty on uniform data: %v", s, sizes)
		}
	}

	// Outliers far outside the world box: clamped into the edge shards.
	outliers := geom.NewPoints(8, dim)
	for i := 0; i < 8; i++ {
		outliers.Set(i, []float64{1e6 * float64(1+i%2) * float64(1-2*(i%3%2)), -1e5 * float64(i)})
	}
	res = e.Insert(outliers)
	m.Insert(res.IDs, outliers)
	checkAgainstOracle(t, e, m, 11)

	pts := m.Points()
	// k beyond any single shard's population, and beyond the whole set:
	// the merge must still return globally exact, distance-sorted answers.
	for _, k := range []int{150, 5000} {
		q := []float64{50, 50}
		got := e.KNN(q, k)
		wantD := oracle.KNNDists(pts, q, k, -1)
		if len(got) != len(wantD) {
			t.Fatalf("k=%d: got %d neighbors, want %d", k, len(got), len(wantD))
		}
		for j, id := range got {
			if geom.SqDist(q, m.CoordsOf(id)) != wantD[j] {
				t.Fatalf("k=%d: neighbor %d distance mismatch", k, j)
			}
		}
	}
	// Boxes straddling every boundary: thin horizontal and vertical slabs,
	// plus the universe.
	for _, box := range []geom.Box{
		{Min: []float64{-1e12, 40}, Max: []float64{1e12, 60}},
		{Min: []float64{40, -1e12}, Max: []float64{60, 1e12}},
		{Min: []float64{-1e12, -1e12}, Max: []float64{1e12, 1e12}},
	} {
		got := e.RangeSearch(box)
		want := oracle.RangeSearch(pts, box)
		if len(got) != len(want) {
			t.Fatalf("straddling box: %d results, oracle %d", len(got), len(want))
		}
		if e.RangeCount(box) != len(want) {
			t.Fatal("straddling box: count mismatch")
		}
	}

	// A skewed founding sample (every point identical) leaves S-1 shards
	// empty; the engine must keep answering exactly.
	e2 := New(dim, Options{BufferSize: 16, Shards: 4})
	m2 := &oracle.LiveSet{Dim: dim}
	same := geom.NewPoints(50, dim)
	for i := 0; i < 50; i++ {
		same.Set(i, []float64{7, 7})
	}
	r2 := e2.Insert(same)
	m2.Insert(r2.IDs, same)
	spread := generators.UniformCube(200, dim, 9)
	r2 = e2.Insert(spread)
	m2.Insert(r2.IDs, spread)
	empty := 0
	for _, n := range e2.Snapshot().ShardSizes() {
		if n == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("identical founding points should leave empty shards")
	}
	checkAgainstOracle(t, e2, m2, 13)
	if del := e2.Delete(same); del.Deleted != 50 {
		t.Fatalf("deleted %d duplicates, want 50", del.Deleted)
	}
	m2.Remove(same)
	checkAgainstOracle(t, e2, m2, 17)
}

// TestShardedParallelWriters: concurrent writers whose batches land in
// disjoint shards (single-shard fast path) and writers whose batches span
// all shards (two-phase multi-shard path) interleave; ids must land
// exactly once and the final state must match the sum of commits.
func TestShardedParallelWriters(t *testing.T) {
	const dim = 2
	e := New(dim, Options{BufferSize: 64, Shards: 4})
	// Founding: uniform over [0,100]^2 so quadrant-ish boundaries exist.
	e.Insert(generators.UniformCube(1000, dim, 1))

	const writers = 8
	const perWriter = 120
	var wg sync.WaitGroup
	idsCh := make(chan []int32, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []int32
			if w%2 == 0 {
				// Tight cluster: routes single-shard almost surely.
				batch := geom.NewPoints(perWriter, dim)
				cx := 10 + 20*float64(w)/2
				for i := 0; i < perWriter; i++ {
					batch.Set(i, []float64{cx + float64(i%10)*0.01, cx + float64(i/10)*0.01})
				}
				got = e.Insert(batch).IDs
			} else {
				// Spread over the whole domain: multi-shard commit.
				batch := generators.UniformCube(perWriter, dim, uint64(w)*77+5)
				got = e.Insert(batch).IDs
			}
			idsCh <- got
		}()
	}
	wg.Wait()
	close(idsCh)
	seen := make(map[int32]bool)
	for ids := range idsCh {
		if len(ids) != perWriter {
			t.Fatalf("writer got %d ids", len(ids))
		}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("id %d assigned twice", id)
			}
			seen[id] = true
		}
	}
	if e.Size() != 1000+writers*perWriter {
		t.Fatalf("size %d", e.Size())
	}
	universe := geom.Box{Min: []float64{-1e9, -1e9}, Max: []float64{1e9, 1e9}}
	if got := e.RangeCount(universe); got != e.Size() {
		t.Fatalf("count %d != size %d", got, e.Size())
	}
}

// TestFusedCommitGroup hands commit one group that mixes two members'
// deletions with two members' insertions, unsharded and across four shards.
// Every shard tree takes the whole group in one bdltree.PersistentUpdate —
// all erases, then one rebuild — so: each member reports its own removal
// count (the second member's overlap with the first is already gone when
// its turn comes), the live set is the model's, and although the deletions
// take more than half of the points no static tree of the published
// version is left below half capacity.
func TestFusedCommitGroup(t *testing.T) {
	const x = 16
	for _, shards := range []int{1, 4} {
		e := New(2, Options{BufferSize: x, Shards: shards})
		m := &oracle.LiveSet{Dim: 2}
		base := generators.UniformCube(1500, 2, 3)
		m.Insert(e.Insert(base).IDs, base)

		a := e.newUpdateReq(generators.UniformCube(40, 2, 4), base.Slice(0, 700))
		b := e.newUpdateReq(geom.Points{Dim: 2}, base.Slice(600, 900))
		c := e.newUpdateReq(generators.UniformCube(25, 2, 5), geom.Points{Dim: 2})
		before := e.Epoch()
		e.commit(globalStream, []*updateReq{a, b, c})
		for _, r := range []*updateReq{a, b, c} {
			<-r.done
			if r.res.Err != nil || r.res.Epoch != before+1 || len(r.res.IDs) != r.ins.Len() {
				t.Fatalf("shards=%d: member acked %+v, want epoch %d and %d ids", shards, r.res, before+1, r.ins.Len())
			}
			want := m.Remove(r.del)
			if r.res.Deleted != want {
				t.Fatalf("shards=%d: member deleted %d, model %d", shards, r.res.Deleted, want)
			}
		}
		if a.res.Deleted != 700 || b.res.Deleted != 200 {
			t.Fatalf("shards=%d: members deleted %d and %d, want 700 and 200", shards, a.res.Deleted, b.res.Deleted)
		}
		m.Insert(a.res.IDs, a.ins)
		m.Insert(c.res.IDs, c.ins)
		checkAgainstOracle(t, e, m, 11)
		for s, tr := range e.snap.Load().trees {
			for i, n := range tr.TreeSizes()[1:] {
				if n != 0 && (n < x<<i/2 || n > x<<i) {
					t.Fatalf("shards=%d: shard %d slot %d holds %d of %d: %v", shards, s, i, n, x<<i, tr.TreeSizes())
				}
			}
		}
		e.Close()
	}
}
