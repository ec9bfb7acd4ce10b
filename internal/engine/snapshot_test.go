package engine

import (
	"math"
	"sync"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/oracle"
)

// TestSnapshotAllKNNPadding: the sharded batch k-NN must honor the
// single-tree row contract exactly — rows sorted by distance, padded with
// -1 ids and +Inf squared distances when k exceeds the live population —
// including when k exceeds every shard, when shards are empty, and on an
// entirely empty engine. Differential against the brute-force oracle.
func TestSnapshotAllKNNPadding(t *testing.T) {
	const dim = 2
	// Identical founding points leave S-1 shards empty; the spread batch
	// then populates some shards while others stay empty.
	e := New(dim, Options{BufferSize: 16, Shards: 4})
	m := &oracle.LiveSet{Dim: dim}
	same := geom.NewPoints(40, dim)
	for i := 0; i < 40; i++ {
		same.Set(i, []float64{7, 7})
	}
	res := e.Insert(same)
	m.Insert(res.IDs, same)
	spread := generators.UniformCube(80, dim, 41)
	res = e.Insert(spread)
	m.Insert(res.IDs, spread)
	empty := 0
	for _, n := range shardSizes(e.Snapshot()) {
		if n == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("test premise: at least one empty shard")
	}

	snap := e.Snapshot()
	pts := m.Points()
	n := snap.Size()
	queries := generators.UniformCube(12, dim, 43)
	for _, k := range []int{1, 5, n, n + 1, 3 * n} {
		dists := make([]float64, queries.Len()*k)
		ids := snap.AllKNN(queries, k, dists)
		for qi := 0; qi < queries.Len(); qi++ {
			q := queries.At(qi)
			row := ids[qi*k : (qi+1)*k]
			drow := dists[qi*k : (qi+1)*k]
			wantD := oracle.KNNDists(pts, q, k, -1)
			for j := 0; j < k; j++ {
				if j < len(wantD) {
					if row[j] < 0 {
						t.Fatalf("k=%d q=%d: row[%d] padded early (want %d real results)", k, qi, j, len(wantD))
					}
					if got := geom.SqDist(q, m.CoordsOf(row[j])); got != wantD[j] {
						t.Fatalf("k=%d q=%d: dist[%d]=%v, oracle %v", k, qi, j, got, wantD[j])
					}
					if drow[j] != wantD[j] {
						t.Fatalf("k=%d q=%d: sqDists[%d]=%v, oracle %v", k, qi, j, drow[j], wantD[j])
					}
				} else {
					if row[j] != -1 {
						t.Fatalf("k=%d q=%d: pad id row[%d]=%d, want -1", k, qi, j, row[j])
					}
					if !math.IsInf(drow[j], 1) {
						t.Fatalf("k=%d q=%d: pad dist row[%d]=%v, want +Inf", k, qi, j, drow[j])
					}
				}
			}
		}
	}

	// Entirely empty engine: every row fully padded.
	e2 := New(dim, Options{Shards: 4})
	ids := e2.Snapshot().AllKNN(queries, 3, nil)
	for i, id := range ids {
		if id != -1 {
			t.Fatalf("empty engine: ids[%d]=%d, want -1", i, id)
		}
	}
}

// TestKNNHugeKClamped: k arrives unchecked from the wire, and a buffer or
// pool sized by k = MaxInt32 is a 16 GB allocation that aborts the process.
// Every k-NN entry point that returns "fewer than k when the set is
// smaller" must therefore clamp k to the snapshot's size before sizing
// anything: the answer is the whole live set in the oracle's distance
// order, an empty engine answers empty rows, and the engine keeps no
// buffer pool for the k that was asked.
func TestKNNHugeKClamped(t *testing.T) {
	const dim, n = 2, 100
	e := New(dim, Options{Shards: 4, RetainEpochs: 4})
	defer e.Close()
	m := &oracle.LiveSet{Dim: dim}
	pts := generators.UniformCube(n, dim, 47)
	res := e.Insert(pts)
	m.Insert(res.IDs, pts)
	pin := e.Pin()
	defer pin.Release()
	// A later commit, so the pinned snapshot is not the live one.
	if r := e.Insert(generators.UniformCube(10, dim, 48)); r.Err != nil {
		t.Fatal(r.Err)
	}

	q := []float64{0.3, 0.7}
	one := geom.Points{Data: q, Dim: dim}
	wantD := oracle.KNNDists(m.Points(), q, n, -1)
	check := func(name string, got []int32) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: %d ids, want the whole %d-point set", name, len(got), n)
		}
		for j, id := range got {
			if d := geom.SqDist(q, m.CoordsOf(id)); d != wantD[j] {
				t.Fatalf("%s: dist[%d]=%v, oracle %v", name, j, d, wantD[j])
			}
		}
	}
	for _, k := range []int{n + 11, math.MaxInt32} {
		check("pinned Snapshot.KNN", pin.KNN(one, k)[0])
		if got := e.Snapshot().KNN(one, k)[0]; len(got) != n+10 {
			t.Fatalf("live Snapshot.KNN(k=%d): %d ids, want %d", k, len(got), n+10)
		}
		if got := e.KNN(q, k); len(got) != n+10 {
			t.Fatalf("Engine.KNN(k=%d): %d ids, want %d", k, len(got), n+10)
		}
	}
	// The grouped pass: concurrent huge-k callers beside ordinary ones.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		k, want := math.MaxInt32, n+10
		if g%2 == 1 {
			k, want = 5, 5
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := e.KNN(q, k); len(got) != want {
				t.Errorf("concurrent Engine.KNN(k=%d): %d ids, want %d", k, len(got), want)
			}
		}()
	}
	wg.Wait()
	e.knnPools.Range(func(k, _ any) bool {
		if k.(int) > n+10 {
			t.Errorf("engine kept a buffer pool for k=%d, past its %d points", k, n+10)
		}
		return true
	})

	empty := New(dim, Options{Shards: 4})
	defer empty.Close()
	if got := empty.KNN(q, math.MaxInt32); len(got) != 0 {
		t.Fatalf("empty Engine.KNN: %v, want no ids", got)
	}
	for i, row := range empty.Snapshot().KNN(generators.UniformCube(3, dim, 49), math.MaxInt32) {
		if len(row) != 0 {
			t.Fatalf("empty Snapshot.KNN row %d: %v, want no ids", i, row)
		}
	}
}

// TestSnapshotKNNInto: the exported shared-buffer fan-out must match the
// oracle (with and without an excluded id), so callers can thread one
// buffer across snapshots exactly as across bdltree shard trees.
func TestSnapshotKNNInto(t *testing.T) {
	const dim = 2
	e := New(dim, Options{BufferSize: 32, Shards: 4})
	m := &oracle.LiveSet{Dim: dim}
	pts := generators.UniformCube(300, dim, 47)
	res := e.Insert(pts)
	m.Insert(res.IDs, pts)

	snap := e.Snapshot()
	all := m.Points()
	probes := generators.UniformCube(10, dim, 48)
	buf := kdtree.NewKNNBuffer(6)
	for i := 0; i < probes.Len(); i++ {
		q := probes.At(i)
		buf.Reset()
		snap.KNNInto(q, -1, buf)
		got := buf.Result(nil)
		wantD := oracle.KNNDists(all, q, 6, -1)
		if len(got) != len(wantD) {
			t.Fatalf("probe %d: %d results, want %d", i, len(got), len(wantD))
		}
		for j, id := range got {
			if geom.SqDist(q, m.CoordsOf(id)) != wantD[j] {
				t.Fatalf("probe %d: dist[%d] mismatch", i, j)
			}
		}
		// Excluding the nearest id must reproduce the oracle minus it.
		ex := got[0]
		buf.Reset()
		snap.KNNInto(q, ex, buf)
		got2 := buf.Result(nil)
		for _, id := range got2 {
			if id == ex {
				t.Fatalf("probe %d: excluded id %d returned", i, ex)
			}
		}
		if geom.SqDist(q, m.CoordsOf(got2[0])) != wantD[1] {
			t.Fatalf("probe %d: exclusion shifted distances wrongly", i)
		}
	}
}

// TestSnapshotKNNIntoZeroAllocs: the solo read through a sharded snapshot —
// shard ordering, every shard's ladder, the shared buffer — allocates
// nothing with a reused buffer, and the shard order it walks is still
// nearest-first (the answer matches the oracle).
func TestSnapshotKNNIntoZeroAllocs(t *testing.T) {
	const dim, k = 2, 8
	e := New(dim, Options{BufferSize: 64, Shards: 4})
	defer e.Close()
	pts := generators.UniformCube(5000, dim, 47)
	if res := e.Insert(pts); res.Err != nil {
		t.Fatal(res.Err)
	}
	snap := e.Snapshot()
	if snap.Shards() != 4 {
		t.Fatalf("%d shards, want 4", snap.Shards())
	}
	buf := kdtree.NewKNNBuffer(k)
	q := []float64{pts.Coord(99, 0) + 0.25, pts.Coord(99, 1)}
	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		snap.KNNInto(q, -1, buf)
	})
	if !raceEnabled && allocs != 0 {
		t.Errorf("Snapshot.KNNInto with a reused buffer did %.2f allocs/run, want 0", allocs)
	}
	dists := make([]float64, k)
	ids := make([]int32, k)
	buf.ResultInto(ids, dists)
	for j, want := range oracle.KNNDists(pts, q, k, -1) {
		if dists[j] != want {
			t.Fatalf("neighbour %d at %v, oracle %v", j, dists[j], want)
		}
	}
}

// TestKNNAllocs bounds the allocations of one k-NN read once the buffer
// pool is warm: Engine.KNN allocates only the returned ids, and a one-row
// Snapshot.KNN adds only the result vector and the fan-out closure — the
// k-NN buffer comes from the owning engine's pool and the shard order
// lives on the stack.
func TestKNNAllocs(t *testing.T) {
	const dim, k = 2, 8
	e := New(dim, Options{Shards: 4})
	defer e.Close()
	pts := generators.UniformCube(20000, dim, 53)
	if res := e.Insert(pts); res.Err != nil {
		t.Fatal(res.Err)
	}
	q := []float64{pts.Coord(7, 0) + 0.25, pts.Coord(7, 1)}
	engineAllocs := testing.AllocsPerRun(200, func() { e.KNN(q, k) })
	snap := e.Snapshot()
	row := geom.Points{Data: q, Dim: dim}
	snapAllocs := testing.AllocsPerRun(200, func() { snap.KNN(row, k) })
	if raceEnabled {
		return
	}
	if engineAllocs > 1 {
		t.Errorf("Engine.KNN did %.2f allocs/run, want <= 1", engineAllocs)
	}
	if snapAllocs > 3 {
		t.Errorf("one-row Snapshot.KNN did %.2f allocs/run, want <= 3", snapAllocs)
	}
}
