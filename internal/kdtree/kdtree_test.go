package kdtree

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

func bruteKNN(pts geom.Points, q []float64, k int, exclude int32) []int32 {
	type cand struct {
		id int32
		d  float64
	}
	var cs []cand
	for i := 0; i < pts.Len(); i++ {
		if int32(i) == exclude {
			continue
		}
		cs = append(cs, cand{int32(i), geom.SqDist(q, pts.At(i))})
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
	for i := range cs {
		out[i] = cs[i].id
	}
	return out
}

func distsMatch(pts geom.Points, q []float64, got, want []int32) bool {
	if len(got) != len(want) {
		return false
	}
	gd := make([]float64, len(got))
	wd := make([]float64, len(want))
	for i := range got {
		gd[i] = geom.SqDist(q, pts.At(int(got[i])))
		wd[i] = geom.SqDist(q, pts.At(int(want[i])))
	}
	sort.Float64s(gd)
	sort.Float64s(wd)
	for i := range gd {
		if gd[i] != wd[i] {
			return false
		}
	}
	return true
}

func TestKNNMatchesBruteForce(t *testing.T) {
	for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
		for _, dim := range []int{2, 3, 5} {
			pts := generators.UniformCube(2000, dim, uint64(dim)*7+uint64(split))
			tree := Build(pts, Options{Split: split})
			queries := make([]int32, 40)
			for i := range queries {
				queries[i] = int32(i * 50)
			}
			for _, k := range []int{1, 3, 10} {
				res := tree.KNN(queries, k)
				for qi, q := range queries {
					want := bruteKNN(pts, pts.At(int(q)), k, q)
					if !distsMatch(pts, pts.At(int(q)), res[qi], want) {
						t.Fatalf("split=%v dim=%d k=%d query %d: got %v want %v",
							split, dim, k, q, res[qi], want)
					}
				}
			}
		}
	}
}

func TestKNNClusteredData(t *testing.T) {
	pts := generators.SeedSpreader(3000, 2, 3)
	tree := Build(pts, Options{})
	queries := []int32{0, 100, 2999}
	res := tree.KNN(queries, 5)
	for qi, q := range queries {
		want := bruteKNN(pts, pts.At(int(q)), 5, q)
		if !distsMatch(pts, pts.At(int(q)), res[qi], want) {
			t.Fatalf("clustered query %d mismatch", q)
		}
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	pts := generators.UniformCube(3000, 3, 17)
	tree := Build(pts, Options{})
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		box := geom.EmptyBox(3)
		c := pts.At(r.Intn(3000))
		w := 2 + r.Float64()*10
		lo := []float64{c[0] - w, c[1] - w, c[2] - w}
		hi := []float64{c[0] + w, c[1] + w, c[2] + w}
		box.Expand(lo)
		box.Expand(hi)
		got := tree.RangeSearch(box)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var want []int32
		for i := 0; i < pts.Len(); i++ {
			if box.Contains(pts.At(i)) {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
		if cnt := tree.RangeCount(box); cnt != len(want) {
			t.Fatalf("trial %d: RangeCount %d, want %d", trial, cnt, len(want))
		}
	}
}

func TestTreeStructureInvariants(t *testing.T) {
	pts := generators.UniformCube(5000, 2, 23)
	for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
		tree := Build(pts, Options{Split: split, LeafSize: 8})
		// Every point appears exactly once in the leaf ranges.
		seen := make([]bool, pts.Len())
		var walk func(nd *Node)
		walk = func(nd *Node) {
			if nd.IsLeaf() {
				for i := nd.Lo; i < nd.Hi; i++ {
					id := tree.Idx[i]
					if seen[id] {
						t.Fatalf("point %d appears twice", id)
					}
					seen[id] = true
					// Point inside node box.
					p := pts.At(int(id))
					for c := 0; c < pts.Dim; c++ {
						if p[c] < nd.MinC[c] || p[c] > nd.MaxC[c] {
							t.Fatalf("point %d outside its leaf box", id)
						}
					}
				}
				return
			}
			l, r := tree.Left(nd), tree.Right(nd)
			if l.Lo != nd.Lo || r.Hi != nd.Hi || l.Hi != r.Lo {
				t.Fatalf("split=%v: child ranges inconsistent", split)
			}
			walk(l)
			walk(r)
		}
		walk(tree.Root())
		for i, s := range seen {
			if !s {
				t.Fatalf("split=%v: point %d missing", split, i)
			}
		}
		if tree.Height() > 40 {
			t.Fatalf("split=%v: tree suspiciously deep: %d", split, tree.Height())
		}
	}
}

func TestBuildSerialMatchesParallel(t *testing.T) {
	pts := generators.UniformCube(20000, 3, 31)
	ts := Build(pts, Options{Serial: true})
	tp := Build(pts, Options{})
	// Same query results regardless of build concurrency.
	queries := []int32{1, 500, 19999}
	rs := ts.KNN(queries, 4)
	rp := tp.KNN(queries, 4)
	for i := range rs {
		if !distsMatch(pts, pts.At(int(queries[i])), rs[i], rp[i]) {
			t.Fatalf("serial/parallel build disagree on query %d", queries[i])
		}
	}
}

func TestKNNBufferBasics(t *testing.T) {
	b := NewKNNBuffer(3)
	if b.Full() {
		t.Fatal("fresh buffer full")
	}
	for i := 0; i < 20; i++ {
		b.Insert(int32(i), float64(20-i)) // distances 20..1
	}
	res := b.Result(nil)
	if len(res) != 3 {
		t.Fatalf("result len %d", len(res))
	}
	// The three nearest have distances 1, 2, 3 -> ids 19, 18, 17.
	want := []int32{19, 18, 17}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("result %v, want %v", res, want)
		}
	}
}

func TestKNNBufferFewerThanK(t *testing.T) {
	b := NewKNNBuffer(5)
	b.Insert(7, 1.5)
	b.Insert(3, 0.5)
	res := b.Result(nil)
	if len(res) != 2 || res[0] != 3 || res[1] != 7 {
		t.Fatalf("partial result %v", res)
	}
}

func TestEmptyAndTinyTrees(t *testing.T) {
	empty := Build(geom.NewPoints(0, 2), Options{})
	if empty.Root() != nil {
		t.Fatal("empty tree should have nil root")
	}
	if res := empty.RangeSearch(geom.EmptyBox(2)); len(res) != 0 {
		t.Fatal("empty range search")
	}
	one := Build(geom.Points{Dim: 2, Data: []float64{1, 2}}, Options{})
	buf := NewKNNBuffer(3)
	one.KNNInto([]float64{0, 0}, -1, buf)
	if res := buf.Result(nil); len(res) != 1 || res[0] != 0 {
		t.Fatalf("single-point knn: %v", res)
	}
}

// TestParallelBuildUnderScheduler pins GOMAXPROCS above 1 so the nested
// fork-join build path through parlay's work-stealing scheduler runs even on
// single-core hosts (and under -race in CI), on both uniform and clustered
// (skew-prone) inputs.
func TestParallelBuildUnderScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		name string
		pts  geom.Points
	}{
		{"uniform", generators.UniformCube(60000, 3, 5)},
		{"seedspreader", generators.SeedSpreader(60000, 3, 6)},
	} {
		for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
			par := Build(tc.pts, Options{Split: split})
			ser := Build(tc.pts, Options{Split: split, Serial: true})
			if par.Root() == nil || par.Root().Size() != tc.pts.Len() {
				t.Fatalf("%s/%v: bad root", tc.name, split)
			}
			// Every point appears exactly once across the leaf ranges.
			seen := make([]bool, tc.pts.Len())
			var walk func(nd *Node)
			walk = func(nd *Node) {
				if nd.IsLeaf() {
					for i := nd.Lo; i < nd.Hi; i++ {
						id := par.Idx[i]
						if seen[id] {
							t.Fatalf("%s/%v: point %d appears twice", tc.name, split, id)
						}
						seen[id] = true
					}
					return
				}
				l, r := par.Left(nd), par.Right(nd)
				if l.Lo != nd.Lo || r.Hi != nd.Hi || l.Hi != r.Lo {
					t.Fatalf("%s/%v: child ranges inconsistent", tc.name, split)
				}
				walk(l)
				walk(r)
			}
			walk(par.Root())
			for i, s := range seen {
				if !s {
					t.Fatalf("%s/%v: point %d missing", tc.name, split, i)
				}
			}
			if h1, h2 := par.Height(), ser.Height(); h1 != h2 {
				t.Fatalf("%s/%v: parallel height %d != serial height %d", tc.name, split, h1, h2)
			}
		}
	}
}
