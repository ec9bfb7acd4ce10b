package engine

import (
	"sync"
	"testing"
	"time"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
)

// checkAgainstOracle verifies engine KNN / RangeSearch / RangeCount answers
// against brute force over the sequential live-set model.
func checkAgainstOracle(t *testing.T, e *Engine, m *oracle.LiveSet, seed uint64) {
	t.Helper()
	if e.Size() != len(m.IDs) {
		t.Fatalf("size %d, mirror has %d", e.Size(), len(m.IDs))
	}
	pts := m.Points()
	probes := generators.UniformCube(8, m.Dim, seed)
	for i := 0; i < probes.Len(); i++ {
		q := probes.At(i)
		got := e.KNN(q, 5)
		wantD := oracle.KNNDists(pts, q, 5, -1)
		if len(got) != len(wantD) {
			t.Fatalf("knn returned %d of %d", len(got), len(wantD))
		}
		for j, id := range got {
			d := geom.SqDist(q, m.CoordsOf(id))
			if d != wantD[j] {
				t.Fatalf("knn dist[%d]=%v, oracle %v", j, d, wantD[j])
			}
		}
	}
	box := geom.Box{Min: []float64{-1e9, -1e9}, Max: []float64{1e9, 1e9}}
	if n := e.RangeCount(box); n != len(m.IDs) {
		t.Fatalf("universe count %d != %d", n, len(m.IDs))
	}
	half := geom.Box{Min: []float64{-1e9, -1e9}, Max: []float64{50, 1e9}}
	gotIDs := e.RangeSearch(half)
	wantIdx := oracle.RangeSearch(pts, half)
	if len(gotIDs) != len(wantIdx) {
		t.Fatalf("range size %d != %d", len(gotIDs), len(wantIdx))
	}
	want := make(map[int32]bool, len(wantIdx))
	for _, i := range wantIdx {
		want[m.IDs[i]] = true
	}
	for _, id := range gotIDs {
		if !want[id] {
			t.Fatalf("range returned id %d not in oracle set", id)
		}
	}
}

func TestEngineSequentialLifecycle(t *testing.T) {
	e := New(2, Options{BufferSize: 64})
	m := &oracle.LiveSet{Dim: 2}
	if e.Size() != 0 || e.Epoch() != 0 {
		t.Fatal("fresh engine must be empty at epoch 0")
	}
	// KNN/range on the empty engine must answer, not hang or panic.
	if got := e.KNN([]float64{0, 0}, 3); len(got) != 0 {
		t.Fatalf("empty engine knn: %v", got)
	}

	lastEpoch := uint64(0)
	for round := 0; round < 6; round++ {
		batch := generators.UniformCube(300, 2, uint64(round)+1)
		res := e.Insert(batch)
		if len(res.IDs) != batch.Len() {
			t.Fatalf("round %d: got %d ids", round, len(res.IDs))
		}
		if res.Epoch <= lastEpoch {
			t.Fatalf("epoch must advance: %d -> %d", lastEpoch, res.Epoch)
		}
		lastEpoch = res.Epoch
		m.Insert(res.IDs, batch)
		checkAgainstOracle(t, e, m, uint64(round)*17+3)

		// Delete a prefix of an earlier batch.
		if round >= 2 {
			old := generators.UniformCube(300, 2, uint64(round)-1)
			sub := geom.Points{Data: old.Data[:100*2], Dim: 2}
			res := e.Delete(sub)
			if want := m.Remove(sub); res.Deleted != want {
				t.Fatalf("deleted %d, mirror removed %d", res.Deleted, want)
			}
			checkAgainstOracle(t, e, m, uint64(round)*31+7)
		}
	}
}

// TestSnapshotIsolation: a snapshot handle keeps answering from its version
// after later commits.
func TestSnapshotIsolation(t *testing.T) {
	e := New(3, Options{BufferSize: 32})
	first := generators.UniformCube(500, 3, 1)
	e.Insert(first)
	snap := e.Snapshot()
	wantSize := snap.Size()
	wantEpoch := snap.Epoch()
	universe := geom.Box{
		Min: []float64{-1e9, -1e9, -1e9},
		Max: []float64{1e9, 1e9, 1e9},
	}
	wantIDs := append([]int32(nil), snap.RangeSearch(universe)...)

	e.Insert(generators.UniformCube(700, 3, 2))
	e.Delete(geom.Points{Data: first.Data[:50*3], Dim: 3})

	if snap.Size() != wantSize || snap.Epoch() != wantEpoch {
		t.Fatalf("snapshot mutated: size %d epoch %d", snap.Size(), snap.Epoch())
	}
	got := snap.RangeSearch(universe)
	if len(got) != len(wantIDs) {
		t.Fatalf("snapshot range drifted: %d != %d", len(got), len(wantIDs))
	}
	if e.Size() != wantSize+700-50 {
		t.Fatalf("engine head size %d", e.Size())
	}
}

// TestConcurrentQueryGrouping: a burst of concurrent queries with mixed k
// must all be answered correctly, matching brute force.
func TestConcurrentQueryGrouping(t *testing.T) {
	e := New(2, Options{})
	pts := generators.UniformCube(2000, 2, 5)
	res := e.Insert(pts)
	idOf := make(map[int32][]float64, len(res.IDs))
	for i, id := range res.IDs {
		idOf[id] = pts.At(i)
	}
	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			probes := generators.UniformCube(10, 2, uint64(c)*13+1)
			for i := 0; i < probes.Len(); i++ {
				q := probes.At(i)
				k := 1 + (c+i)%7 // mixed k across the group
				got := e.KNN(q, k)
				wantD := oracle.KNNDists(pts, q, k, -1)
				if len(got) != len(wantD) {
					errs <- "knn result length"
					return
				}
				for j, id := range got {
					if geom.SqDist(q, idOf[id]) != wantD[j] {
						errs <- "knn distance mismatch"
						return
					}
				}
				box := geom.Box{Min: []float64{q[0] - 5, q[1] - 5}, Max: []float64{q[0] + 5, q[1] + 5}}
				if e.RangeCount(box) != oracle.RangeCount(pts, box) {
					errs <- "range count mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestWriteCoalescing: concurrent writers commit correctly and every id
// lands exactly once.
func TestWriteCoalescing(t *testing.T) {
	e := New(2, Options{BufferSize: 128})
	const writers = 16
	var wg sync.WaitGroup
	idsCh := make(chan []int32, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := generators.UniformCube(150, 2, uint64(w)+100)
			res := e.Insert(batch)
			if len(res.IDs) != 150 {
				idsCh <- nil
				return
			}
			idsCh <- res.IDs
		}()
	}
	wg.Wait()
	close(idsCh)
	seen := make(map[int32]bool)
	for ids := range idsCh {
		if ids == nil {
			t.Fatal("writer got wrong id count")
		}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("id %d assigned twice", id)
			}
			seen[id] = true
		}
	}
	if e.Size() != writers*150 {
		t.Fatalf("size %d after %d inserts", e.Size(), writers*150)
	}
	universe := geom.Box{Min: []float64{-1e9, -1e9}, Max: []float64{1e9, 1e9}}
	if got := e.RangeCount(universe); got != writers*150 {
		t.Fatalf("count %d", got)
	}
}

// TestKNNBadKPanicsAndReadsGoOn: a k < 1 k-NN panics with the documented
// message on both a snapshot and the engine, and a recovered panic leaves
// the engine answering reads — no caller-visible state outlives a
// panicking read.
func TestKNNBadKPanicsAndReadsGoOn(t *testing.T) {
	e := New(2, Options{Shards: 2})
	defer e.Close()
	if res := e.Insert(generators.UniformCube(256, 2, 11)); res.Err != nil {
		t.Fatal(res.Err)
	}
	q := []float64{0.5, 0.5}
	universe := geom.Box{Min: []float64{-1e9, -1e9}, Max: []float64{1e9, 1e9}}
	calls := []struct {
		name string
		call func(k int)
	}{
		{"Snapshot.KNN", func(k int) { e.Snapshot().KNN(geom.Points{Data: q, Dim: 2}, k) }},
		{"Engine.KNN", func(k int) { e.KNN(q, k) }},
	}
	done := make(chan int, 1)
	go func() {
		for _, c := range calls {
			for _, k := range []int{0, -1} {
				func() {
					defer func() {
						if r := recover(); r != "engine: KNN requires k >= 1" {
							t.Errorf("%s(k=%d) panicked with %v", c.name, k, r)
						}
					}()
					c.call(k)
				}()
			}
		}
		done <- len(e.KNN(q, 3)) + e.RangeCount(universe)
	}()
	select {
	case got := <-done:
		if got != 3+256 {
			t.Fatalf("after the panics: KNN + RangeCount = %d, want %d", got, 3+256)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reads blocked after a recovered k-NN panic")
	}
}
