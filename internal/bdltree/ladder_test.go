package bdltree

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/oracle"
)

// Exactness tests for the traps the arena levels and the largest-first
// ladder walk open, each against the brute-force oracle.

// ladder builds a tree whose static slots match the bits of mask (buffer
// size x, plus rest loose points in the buffer tree) in ONE insertion, and
// the oracle model beside it.
func ladder(t *testing.T, dim, x, mask, rest int, pts geom.Points) (*Tree, *oracle.LiveSet) {
	t.Helper()
	n := mask*x + rest
	tr := New(dim, Options{BufferSize: x})
	m := &oracle.LiveSet{Dim: dim}
	batch := pts.Slice(0, n)
	m.Insert(tr.Insert(batch), batch)
	want := []int{rest}
	for i := 0; 1<<i <= mask; i++ {
		want = append(want, (mask>>i&1)*x<<i)
	}
	if got := tr.TreeSizes(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ladder sizes %v, want %v", got, want)
	}
	return tr, m
}

// checkKNN compares one query's answer in buf against the oracle by
// distance sequence (ties at a distance may resolve to different ids).
func checkKNN(t *testing.T, label string, buf *kdtree.KNNBuffer, m *oracle.LiveSet, q []float64, k int) {
	t.Helper()
	checkKNNDists(t, label, buf, m, q, oracle.KNNDists(m.Points(), q, k, -1))
}

// checkKNNDists is checkKNN against oracle distances the caller computed.
func checkKNNDists(t *testing.T, label string, buf *kdtree.KNNBuffer, m *oracle.LiveSet, q []float64, want []float64) {
	t.Helper()
	got := buf.Result(nil)
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbours, oracle %d", label, len(got), len(want))
	}
	for j, gid := range got {
		c := m.CoordsOf(gid)
		if c == nil {
			t.Fatalf("%s: returned dead or unknown id %d", label, gid)
		}
		if d := geom.SqDist(q, c); d != want[j] {
			t.Fatalf("%s: dist[%d] = %v, oracle %v", label, j, d, want[j])
		}
	}
}

// TestLadderNearestRowsAllDead: the k+1 points nearest the query all sit in
// the largest level — the first one the walk visits, with an unbounded
// buffer — and are all tombstoned. The eager first-leaf threshold must not
// seal a bound from the dead rows' f32 distances.
func TestLadderNearestRowsAllDead(t *testing.T) {
	const k, x = 8, 128
	pts := generators.UniformCube(0b1011*x+40, 2, 41)
	tr, m := ladder(t, 2, x, 0b1011, 40, pts)
	big := tr.trees[3]
	q := append([]float64(nil), big.Pts.At(500)...)
	near := oracle.KNN(big.Pts, q, k+1, -1)
	victims := big.Pts.Gather(near)
	sizes := fmt.Sprint(tr.TreeSizes()[:4])
	if got := tr.Delete(victims); got != k+1 {
		t.Fatalf("deleted %d, want %d", got, k+1)
	}
	m.Remove(victims)
	if tr.trees[3].Dead == nil || fmt.Sprint(tr.TreeSizes()[:4]) != sizes {
		t.Fatalf("the delete must tombstone in the largest level only: %v", tr.TreeSizes())
	}
	buf := kdtree.NewKNNBuffer(k)
	tr.KNNInto(q, -1, buf)
	checkKNN(t, "all-dead", buf, m, q, k)
}

// TestLadderHugeCoordsAndNaNBox drives the scalar float64 fallback through a
// multi-level ladder: one level's coordinates exceed the f32-safe bound
// (its filter never arms; the other levels' do), some rows are tombstoned,
// and range queries include a box with NaN bounds (which no filter may
// see). The fallback is one code path in kdtree; this is its BDL coverage.
func TestLadderHugeCoordsAndNaNBox(t *testing.T) {
	const x = 16
	tr := New(2, Options{BufferSize: x})
	m := &oracle.LiveSet{Dim: 2}
	huge := geom.NewPoints(4*x, 2)
	for i := 0; i < huge.Len(); i++ {
		huge.Set(i, []float64{3e18 * float64(i+1), -2e19 * float64(i%7)})
	}
	small := generators.UniformCube(3*x+5, 2, 9)
	m.Insert(tr.Insert(huge), huge)   // slot 2
	m.Insert(tr.Insert(small), small) // slots 0, 1 and the buffer
	if fmt.Sprint(tr.TreeSizes()) != fmt.Sprint([]int{5, x, 2 * x, 4 * x}) {
		t.Fatalf("ladder sizes %v", tr.TreeSizes())
	}
	dead := geom.Points{Dim: 2}
	for i := 0; i < 12; i++ {
		dead.Data = append(dead.Data, huge.At(5*i)...)
		dead.Data = append(dead.Data, small.At(4*i)...)
	}
	tr.Delete(dead)
	m.Remove(dead)

	for qi, q := range [][]float64{{3, 3}, {9e18, -4e19}, {2.5e20, 0}, huge.At(7)} {
		for _, k := range []int{1, 6, 40} {
			buf := kdtree.NewKNNBuffer(k)
			tr.KNNInto(q, -1, buf)
			checkKNN(t, fmt.Sprintf("q%d/k%d", qi, k), buf, m, q, k)
		}
	}
	nan := math.NaN()
	for bi, box := range []geom.Box{
		{Min: []float64{-1, -1e20}, Max: []float64{1e19, 1}},
		{Min: []float64{nan, -1}, Max: []float64{4, 3}},
		{Min: []float64{0, 0}, Max: []float64{nan, nan}},
	} {
		wantRows := oracle.RangeSearch(m.Points(), box)
		want := make([]int32, len(wantRows))
		for i, r := range wantRows {
			want[i] = m.IDs[r]
		}
		if got := tr.RangeSearch(box); !sameGidSet(got, want) {
			t.Fatalf("box %d: %d ids, oracle %d", bi, len(got), len(want))
		}
		if c := tr.RangeCount(box); c != len(want) {
			t.Fatalf("box %d: count %d, oracle %d", bi, c, len(want))
		}
	}
}

// TestLadderWalkOrderDoesNotMatter: the shared buffer makes the answer a
// function of the candidate set, not of the order levels feed it. Every one
// of the 8! walk orders over a 6-level ladder plus buffer tree plus open
// leaf must return the oracle's distances, with duplicated points
// straddling the k-th distance (so which of several tied ids survives may
// differ — the distances may not).
func TestLadderWalkOrderDoesNotMatter(t *testing.T) {
	const k, x = 5, 8
	n := 0b111111*x + 5
	pts := generators.SeedSpreader(n, 2, 23)
	for i := 0; i+4 < n; i += 4 {
		pts.Set(i+1, pts.At(i)) // every level gets exact duplicates
	}
	tr, m := ladder(t, 2, x, 0b111111, 5, pts)
	dead := pts.Slice(40, 52)
	tr.Delete(dead)
	m.Remove(dead)
	open := pts.Slice(100, 102) // two more copies, in the open leaf
	m.Insert(tr.Insert(open), open)
	levels := tr.levels()
	for i, l := range levels {
		if l == nil {
			t.Fatalf("slot %d of %v is empty; the walk below wants all eight", i, tr.TreeSizes())
		}
	}
	queries := [][]float64{pts.At(0), pts.At(100), pts.At(301), {-5, -5}}
	want := make([][]float64, len(queries))
	for qi, q := range queries {
		want[qi] = oracle.KNNDists(m.Points(), q, k, -1)
	}
	order := []int{0, 1, 2, 3, 4, 5, 6, 7}
	buf := kdtree.NewKNNBuffer(k)
	perms := 0
	var permute func(i int)
	permute = func(i int) {
		if i == len(order) {
			perms++
			for qi, q := range queries {
				buf.Reset()
				for _, li := range order {
					levels[li].knnInto(q, -1, buf)
				}
				checkKNNDists(t, fmt.Sprintf("order %v q%d", order, qi), buf, m, q, want[qi])
			}
			return
		}
		for j := i; j < len(order); j++ {
			order[i], order[j] = order[j], order[i]
			permute(i + 1)
			order[i], order[j] = order[j], order[i]
		}
	}
	permute(0)
	if perms != 40320 {
		t.Fatalf("walked %d orders", perms)
	}
}

// levelArrays are the identities of the arrays a level owns.
func levelArrays(l *level) [5]unsafe.Pointer {
	return [5]unsafe.Pointer{
		unsafe.Pointer(unsafe.SliceData(l.Pts.Data)),
		unsafe.Pointer(unsafe.SliceData(l.CoordsF32)),
		unsafe.Pointer(unsafe.SliceData(l.Idx)),
		unsafe.Pointer(unsafe.SliceData(l.Nodes)),
		unsafe.Pointer(unsafe.SliceData(l.Dead)),
	}
}

// TestPersistentDeleteSharesUntouchedArrays: a PersistentDelete on a child
// version leaves the parent's answers and Size() as they were, shares every
// level it did not touch outright, and copies of a touched level only the
// tombstone bitset.
func TestPersistentDeleteSharesUntouchedArrays(t *testing.T) {
	const x = 64
	pts := generators.UniformCube(0b1101*x+20, 3, 77)
	parent, m := ladder(t, 3, x, 0b1101, 20, pts)
	child, _ := parent.PersistentInsert(generators.UniformCube(10, 3, 78))
	probes := generators.UniformCube(8, 3, 79)
	before := fmt.Sprint(parent.KNN(probes, 6, nil), parent.RangeCount(geom.BoundingBoxAll(pts)))

	// Victims from the largest level only, too few to trigger a rebalance.
	victims := parent.trees[3].Pts.Slice(100, 130)
	grand, removed := child.PersistentDelete(victims)
	if removed != 30 || grand.Size() != child.Size()-30 {
		t.Fatalf("removed %d, sizes %d -> %d", removed, child.Size(), grand.Size())
	}
	if parent.Size() != len(m.IDs) || child.Size() != len(m.IDs)+10 {
		t.Fatalf("ancestor sizes moved: parent %d, child %d", parent.Size(), child.Size())
	}
	if after := fmt.Sprint(parent.KNN(probes, 6, nil), parent.RangeCount(geom.BoundingBoxAll(pts))); after != before {
		t.Fatal("parent answers changed under a descendant's delete")
	}
	verifyModel(t, parent, m, 80, "parent after descendant delete")

	for i, cl := range child.trees {
		gl := grand.trees[i]
		switch {
		case i != 3:
			if gl != cl {
				t.Errorf("slot %d: untouched level was copied", i)
			}
		case gl == cl || gl.live != cl.live-30:
			t.Errorf("slot 3: touched level not replaced (live %d -> %d)", cl.live, gl.live)
		default:
			ca, ga := levelArrays(cl), levelArrays(gl)
			if ca[4] != nil || ga[4] == nil {
				t.Errorf("slot 3: bitset must be nil before the first erase and fresh after")
			}
			ca[4], ga[4] = nil, nil
			if ca != ga {
				t.Errorf("slot 3: erase copied more than the bitset")
			}
		}
	}
	if grand.buffer != child.buffer {
		t.Error("buffer tree was copied though it lost no row")
	}

	// A second erase in the same level copies the bitset again rather than
	// writing the one grand is still read through.
	more := parent.trees[3].Pts.Slice(200, 210)
	great, _ := grand.PersistentDelete(more)
	if unsafe.SliceData(great.trees[3].Dead) == unsafe.SliceData(grand.trees[3].Dead) {
		t.Error("second erase wrote the shared bitset in place")
	}
	if grand.trees[3].live != child.trees[3].live-30 {
		t.Error("grand's level changed under its child's delete")
	}
	gm := &oracle.LiveSet{Dim: 3}
	gp, gids := grand.Points()
	gm.Insert(gids, gp)
	verifyModel(t, grand, gm, 81, "grand after its child's delete")
}

// TestFootprintPerPoint locks the level diet in at tier 1: a layout change
// that re-inflates the levels fails here, not at a benchmark's RSS gate.
// Floor: 8·dim (float64 rows) + 4·dim (f32 slabs) + 4 (id) bytes a point;
// the rest is the node arena at 64-point leaves, the open leaf's one node
// included, and the levels' membership filters (1.25 B a row).
func TestFootprintPerPoint(t *testing.T) {
	for _, tc := range []struct {
		dim   int
		limit float64
	}{{2, 36}, {5, 12*5 + 12}} {
		const n = 200000
		tr := New(tc.dim, Options{})
		pts := generators.UniformCube(n, tc.dim, uint64(tc.dim))
		tr.Insert(pts.Slice(0, n-40))
		tr.Insert(pts.Slice(n-40, n))
		if tr.tail.size() != 40 {
			t.Fatalf("dim %d: the open leaf holds %d of the last 40 points: %v", tc.dim, tr.tail.size(), tr.TreeSizes())
		}
		got := float64(tr.MemoryFootprint(map[any]struct{}{})) / n
		t.Logf("dim %d: %.1f B/point over %v", tc.dim, got, tr.TreeSizes())
		if got > tc.limit {
			t.Errorf("dim %d: %.1f B/point, limit %.0f", tc.dim, got, tc.limit)
		}
		// The estimate must cover what it claims to: at least the floor.
		if floor := float64(12*tc.dim + 4); got < floor {
			t.Errorf("dim %d: %.1f B/point is below the %v B floor — an array is uncounted", tc.dim, got, floor)
		}
	}
}

// TestFootprintCountsFiltersOnce: the footprint charges every level's
// membership filter, and a persistent deletion's child, whose levels share
// their filters with the parent's, adds only its fresh tombstone bitsets to
// the parent's count.
func TestFootprintCountsFiltersOnce(t *testing.T) {
	pts := generators.UniformCube(0b1011*256+100, 3, 41)
	parent := New(3, Options{BufferSize: 256})
	parent.Insert(pts)
	bare, filterBytes := parent.shallowClone(), 0
	bare.buffer = nil // one leaf: no filter
	for i, l := range parent.trees {
		if l != nil {
			nl := *l
			nl.filter = nil
			bare.trees[i] = &nl
			filterBytes += 8 * len(l.filter)
		}
	}
	withFilters := parent.MemoryFootprint(map[any]struct{}{})
	bare.buffer = parent.buffer
	if without := bare.MemoryFootprint(map[any]struct{}{}); filterBytes == 0 || withFilters-without != uint64(filterBytes) {
		t.Fatalf("footprint %d B with filters, %d B without, filters hold %d B", withFilters, without, filterBytes)
	}
	victims := geom.Points{Dim: 3}
	for i := 0; i < pts.Len(); i += 10 { // a tenth of every level: none falls below half
		victims.Data = append(victims.Data, pts.At(i)...)
	}
	child, removed := parent.PersistentDelete(victims)
	if removed != victims.Len() {
		t.Fatalf("removed %d of %d", removed, victims.Len())
	}
	bitsets := 0
	for i, l := range child.levels() {
		p := parent.levels()[i]
		if l == nil && p == nil {
			continue
		}
		if l == nil || p == nil || l == p || unsafe.SliceData(l.filter) != unsafe.SliceData(p.filter) {
			t.Fatalf("level %d was rebuilt or not erased: parent %v, child %v", i-2, parent.TreeSizes(), child.TreeSizes())
		}
		bitsets += 8 * len(l.Dead)
	}
	seen := map[any]struct{}{}
	parent.MemoryFootprint(seen)
	if extra := child.MemoryFootprint(seen); extra != uint64(bitsets) {
		t.Fatalf("child adds %d B to its parent's footprint, its bitsets are %d B", extra, bitsets)
	}
}
