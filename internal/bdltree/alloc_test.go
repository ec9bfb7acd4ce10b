package bdltree

import (
	"testing"

	"pargeo/internal/generators"
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
