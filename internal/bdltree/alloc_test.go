package bdltree

import (
	"runtime"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
)

// TestKNNIntoZeroAllocs: a k-NN through the whole ladder — several static
// levels, the buffer tree, one of the levels carrying tombstones — with a
// reused buffer allocates nothing. The read path's rule is no allocation
// per query; this is the ladder's share of it.
func TestKNNIntoZeroAllocs(t *testing.T) {
	pts := generators.UniformCube(0b1011*256+100, 2, 31)
	tr := New(2, Options{BufferSize: 256})
	tr.Insert(pts)
	tr.Delete(pts.Slice(2000, 2040))
	if tr.NumTrees() != 3 || tr.buffer == nil || tr.trees[3].Dead == nil {
		t.Fatalf("want a 3-level ladder with a buffer tree and tombstones, have %v", tr.TreeSizes())
	}
	buf := kdtree.NewKNNBuffer(8)
	q := pts.At(777)
	allocs := testing.AllocsPerRun(200, func() {
		buf.Reset()
		tr.KNNInto(q, -1, buf)
	})
	if !raceEnabled && allocs != 0 {
		t.Errorf("KNNInto with a reused buffer did %.2f allocs/run, want 0", allocs)
	}
}

// TestPersistentDeleteAllocs: a 512-candidate PersistentDelete over a
// 6-level ladder (plus buffer tree and open leaf) allocates per level it
// touches and per candidate block, never per node it visits: the header
// clone (2), the level list and the block table (2), one row buffer per
// level × block (8 × 4), a level copy and a bitset per level that lost a
// row (8 × 2), and the parallel loop's three closures. Measured on one
// processor, where the scheduler runs loops inline and adds no task
// allocations of its own. (Box-filtering the candidate list node by node
// did 3 007 on the benchmark's 230 k-point tree.)
func TestPersistentDeleteAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 0b111111*DefaultBufferSize + 500
	pts := generators.UniformCube(n+8, 3, 37)
	tr := New(3, Options{})
	tr.Insert(pts.Slice(0, n))
	tr.Insert(pts.Slice(n, n+8)) // the open leaf
	batch := geom.NewPoints(512, 3)
	for i := 0; i < 511; i++ {
		batch.Set(i, pts.At(i*(n/512)))
	}
	batch.Set(511, pts.At(n+3))
	if tr.NumTrees() != 6 || tr.buffer == nil || tr.tail == nil {
		t.Fatalf("want a 6-level ladder with a buffer tree and an open leaf, have %v", tr.TreeSizes())
	}
	var next *Tree
	var removed int
	allocs := testing.AllocsPerRun(20, func() {
		next, removed = tr.PersistentDelete(batch)
	})
	if removed != 512 || tr.Size() != n+8 {
		t.Fatalf("removed %d of 512, parent now holds %d of %d", removed, tr.Size(), n+8)
	}
	for i, l := range next.levels() {
		if l == nil || l.Dead == nil {
			t.Fatalf("level %d lost no row; the count below assumes all eight did", i-2)
		}
	}
	if !raceEnabled && allocs != 55 {
		t.Errorf("PersistentDelete of 512 candidates did %.0f allocs/run, want 55", allocs)
	}
}
