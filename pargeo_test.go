package pargeo

import (
	"math"
	"testing"

	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
)

// The facade tests double as integration tests across modules: build data
// with one module, index it with another, and verify cross-module
// consistency end-to-end.

func TestFacadeHullPipeline(t *testing.T) {
	pts := Uniform(5000, 2, 1)
	hulls := [][]int32{
		ConvexHull2D(pts, Hull2DMonotoneChain),
		ConvexHull2D(pts, Hull2DSeqQuickhull),
		ConvexHull2D(pts, Hull2DQuickhull),
		ConvexHull2D(pts, Hull2DRandInc),
		ConvexHull2D(pts, Hull2DDivideConquer),
	}
	for i := 1; i < len(hulls); i++ {
		if len(hulls[i]) != len(hulls[0]) {
			t.Fatalf("hull %d size %d != %d", i, len(hulls[i]), len(hulls[0]))
		}
	}
	p3 := InSphere(5000, 3, 2)
	f := ConvexHull3D(p3, Hull3DDivideConquer)
	ref := ConvexHull3D(p3, Hull3DSeqQuickhull)
	if len(HullVertices(f)) != len(HullVertices(ref)) {
		t.Fatalf("3D hull vertex counts differ: %d vs %d",
			len(HullVertices(f)), len(HullVertices(ref)))
	}
}

func TestFacadeSEBConsistent(t *testing.T) {
	pts := OnSphere(3000, 3, 3)
	ref := SmallestEnclosingBall(pts, SEBWelzlSeq)
	for _, alg := range []SEBAlgorithm{SEBWelzl, SEBWelzlMtf, SEBWelzlMtfPivot, SEBScan, SEBSampling} {
		b := SmallestEnclosingBall(pts, alg)
		if math.Abs(b.SqRadius-ref.SqRadius) > 1e-7*(1+ref.SqRadius) {
			t.Fatalf("alg %d radius %g vs ref %g", alg, b.SqRadius, ref.SqRadius)
		}
	}
}

func TestFacadeTreeAndGraphs(t *testing.T) {
	pts := SeedSpreader(2000, 2, 4)
	tree := BuildKDTree(pts, ObjectMedian)
	res := KNN(tree, []int32{0, 1, 2}, 3)
	if len(res) != 3 || len(res[0]) != 3 {
		t.Fatalf("KNN result shape: %v", res)
	}
	edges := EMST(pts)
	if len(edges) != 1999 {
		t.Fatalf("EMST edge count %d", len(edges))
	}
	de := DelaunayGraph(pts)
	ga := GabrielGraph(pts)
	if len(ga) >= len(de) {
		t.Fatalf("gabriel (%d) should be sparser than delaunay (%d)", len(ga), len(de))
	}
	cp := ClosestPair(pts)
	if cp.A < 0 || cp.SqDist < 0 {
		t.Fatalf("closest pair %v", cp)
	}
	// EMST's shortest edge equals the closest pair distance.
	minE := math.Inf(1)
	for _, e := range edges {
		if e.SqDist < minE {
			minE = e.SqDist
		}
	}
	if math.Abs(minE-cp.SqDist) > 1e-9*(1+cp.SqDist) {
		t.Fatalf("EMST min edge %g != closest pair %g", minE, cp.SqDist)
	}
}

func TestFacadeBDL(t *testing.T) {
	pts := Uniform(1000, 5, 5)
	tr := NewBDLTree(5, BDLOptions{})
	ids := tr.Insert(pts)
	if tr.Size() != 1000 {
		t.Fatalf("size %d", tr.Size())
	}
	got := tr.KNN(pts.Slice(0, 5), 3, ids[:5])
	if len(got) != 5 || len(got[0]) != 3 {
		t.Fatalf("bdl knn shape %v", got)
	}
	tr.Delete(pts.Slice(0, 500))
	if tr.Size() != 500 {
		t.Fatalf("size after delete %d", tr.Size())
	}
}

func TestFacadeMortonAndSpanner(t *testing.T) {
	pts := Uniform(3000, 3, 6)
	idx := MortonSort(pts)
	if len(idx) != 3000 {
		t.Fatalf("morton %d", len(idx))
	}
	sp := Spanner(Uniform(500, 2, 7), 6)
	if len(sp) < 499 {
		t.Fatalf("spanner too sparse: %d", len(sp))
	}
	bcp := BichromaticClosestPair(Uniform(200, 2, 8), Uniform(200, 2, 9))
	if bcp.A < 0 || bcp.B < 0 {
		t.Fatalf("bccp %v", bcp)
	}
}

// TestKNNRejectsKBelowOne: every k-NN entry point below the engine panics
// with the one contract message for k = 0 and k = -1, on an empty tree and
// on a non-empty one, instead of dying inside the buffer (an index or
// makeslice error) or silently answering with empty rows.
func TestKNNRejectsKBelowOne(t *testing.T) {
	const want = "kdtree: KNN requires k >= 1"
	pts := Uniform(64, 2, 3)
	queries := pts.Slice(0, 4)
	empty := geom.NewPoints(0, 2)
	fullKD, emptyKD := BuildKDTree(pts, ObjectMedian), BuildKDTree(empty, ObjectMedian)
	fullBDL, emptyBDL := NewBDLTree(2, BDLOptions{}), NewBDLTree(2, BDLOptions{})
	fullBDL.Insert(pts)
	calls := []struct {
		name string
		call func(k int)
	}{
		{"kdtree.NewKNNBuffer", func(k int) { kdtree.NewKNNBuffer(k) }},
		{"kdtree.Tree.KNN/empty", func(k int) { emptyKD.KNN(nil, k) }},
		{"kdtree.Tree.KNN", func(k int) { fullKD.KNN([]int32{0, 1, 2}, k) }},
		{"pargeo.KNN/empty", func(k int) { KNN(emptyKD, nil, k) }},
		{"pargeo.KNN", func(k int) { KNN(fullKD, []int32{0, 1, 2}, k) }},
		{"bdltree.Tree.KNN/empty", func(k int) { emptyBDL.KNN(queries, k, nil) }},
		{"bdltree.Tree.KNN", func(k int) { fullBDL.KNN(queries, k, nil) }},
	}
	for _, c := range calls {
		for _, k := range []int{0, -1} {
			func() {
				defer func() {
					if r := recover(); r != want {
						t.Errorf("%s(k=%d) panicked with %v, want %q", c.name, k, r, want)
					}
				}()
				c.call(k)
			}()
		}
	}
}
