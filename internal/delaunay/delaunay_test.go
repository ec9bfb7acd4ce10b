package delaunay

import (
	"fmt"
	"runtime"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

// checkDelaunay validates the triangulation invariants:
//   - every triangle is CCW;
//   - the empty-circumcircle property holds against every input point;
//   - every non-duplicate input point appears as a vertex;
//   - the edge adjacency is a manifold triangulation of the convex hull
//     (every internal edge shared by exactly two triangles).
func checkDelaunay(t *testing.T, pts geom.Points, dt *Triangulation, label string) {
	t.Helper()
	tris := dt.Triangles()
	if len(tris) == 0 {
		t.Fatalf("%s: no triangles", label)
	}
	n := pts.Len()
	// CCW + empty circumcircle (the defining property).
	for ti, tv := range tris {
		a, b, c := pts.At(int(tv[0])), pts.At(int(tv[1])), pts.At(int(tv[2]))
		if geom.Orient2D(a, b, c) <= 0 {
			t.Fatalf("%s: triangle %d not CCW", label, ti)
		}
		for p := 0; p < n; p++ {
			if int32(p) == tv[0] || int32(p) == tv[1] || int32(p) == tv[2] {
				continue
			}
			if geom.InCircle(a, b, c, pts.At(p)) > 0 {
				t.Fatalf("%s: point %d strictly inside circumcircle of triangle %d %v",
					label, p, ti, tv)
			}
		}
	}
	// Vertex coverage (ignoring exact duplicates).
	coord := map[[2]float64]bool{}
	for _, tv := range tris {
		for _, v := range tv {
			p := pts.At(int(v))
			coord[[2]float64{p[0], p[1]}] = true
		}
	}
	for p := 0; p < n; p++ {
		c := pts.At(p)
		if !coord[[2]float64{c[0], c[1]}] {
			t.Fatalf("%s: point %d (%v) missing from triangulation", label, p, c)
		}
	}
	// Edge counts: internal edges twice, hull edges once.
	type ekey struct{ u, v int32 }
	cnt := map[ekey]int{}
	for _, tv := range tris {
		for e := 0; e < 3; e++ {
			u, v := tv[e], tv[(e+1)%3]
			if u > v {
				u, v = v, u
			}
			cnt[ekey{u, v}]++
		}
	}
	for k, c := range cnt {
		if c > 2 {
			t.Fatalf("%s: edge %v appears %d times", label, k, c)
		}
	}
}

func TestDelaunaySequentialSmall(t *testing.T) {
	for _, n := range []int{4, 10, 50, 200} {
		pts := generators.UniformCube(n, 2, uint64(n))
		dt := Sequential(pts, 1)
		checkDelaunay(t, pts, dt, "seq")
	}
}

func TestDelaunayParallelSmall(t *testing.T) {
	for _, n := range []int{4, 10, 50, 200, 1000} {
		pts := generators.UniformCube(n, 2, uint64(n)+100)
		dt := Parallel(pts, 2)
		checkDelaunay(t, pts, dt, "par")
	}
}

// procs are the worker counts the parallel tests run at. A round's batch is
// 8·P points, so P = 32 (256-point batches) has the most contention.
var procs = []int{1, 2, 4, 32}

// atProcs runs f as one subtest per worker count in procs.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, p := range procs {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			f(t)
		})
	}
}

func TestDelaunayParallelMatchesSequential(t *testing.T) {
	pts := generators.InSphere(800, 2, 77)
	seqEdges := edgeSet(Sequential(pts, 3).Edges())
	atProcs(t, func(t *testing.T) {
		parEdges := edgeSet(Parallel(pts, 4).Edges())
		if len(seqEdges) != len(parEdges) {
			t.Fatalf("edge counts differ: %d vs %d", len(seqEdges), len(parEdges))
		}
		for e := range seqEdges {
			if !parEdges[e] {
				t.Fatalf("edge %v in sequential but not parallel", e)
			}
		}
	})
}

func edgeSet(es []Edge) map[Edge]bool {
	m := make(map[Edge]bool, len(es))
	for _, e := range es {
		m[e] = true
	}
	return m
}

func TestDelaunayLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pts := generators.UniformCube(20000, 2, 5)
	dt := Parallel(pts, 6)
	tris := dt.Triangles()
	// Euler: for n points with h hull vertices, triangles = 2n - h - 2.
	// Just sanity-check the asymptotic range.
	if len(tris) < 2*20000-200-2 || len(tris) > 2*20000 {
		t.Fatalf("triangle count out of range: %d", len(tris))
	}
	// Spot-check the circumcircle property on a subset.
	for ti := 0; ti < len(tris); ti += 500 {
		tv := tris[ti]
		a, b, c := pts.At(int(tv[0])), pts.At(int(tv[1])), pts.At(int(tv[2]))
		for p := 0; p < pts.Len(); p += 97 {
			if int32(p) == tv[0] || int32(p) == tv[1] || int32(p) == tv[2] {
				continue
			}
			if geom.InCircle(a, b, c, pts.At(p)) > 0 {
				t.Fatalf("circumcircle violation at triangle %d point %d", ti, p)
			}
		}
	}
}

func TestDelaunayDuplicatePoints(t *testing.T) {
	pts := geom.Points{Dim: 2, Data: []float64{
		0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0.5, 0.5, 0.5, 0.5,
	}}
	dt := Parallel(pts, 7)
	checkDelaunay(t, pts, dt, "dups")
	tris := dt.Triangles()
	// 5 distinct sites, 4 hull: expect 2*5 - 4 - 2 = 4 triangles.
	if len(tris) != 4 {
		t.Fatalf("duplicate square: %d triangles, want 4", len(tris))
	}
}

func TestDelaunayGrid(t *testing.T) {
	// Cocircular degeneracies: a regular grid. The triangulation must stay
	// structurally valid (any diagonal choice is acceptable).
	const k = 8
	pts := geom.NewPoints(k*k, 2)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			pts.Set(i*k+j, []float64{float64(i), float64(j)})
		}
	}
	atProcs(t, func(t *testing.T) {
		tris := Parallel(pts, 8).Triangles()
		want := 2 * (k - 1) * (k - 1)
		if len(tris) != want {
			t.Fatalf("grid: %d triangles, want %d", len(tris), want)
		}
		for _, tv := range tris {
			a, b, c := pts.At(int(tv[0])), pts.At(int(tv[1])), pts.At(int(tv[2]))
			if geom.Orient2D(a, b, c) <= 0 {
				t.Fatalf("grid triangle not CCW: %v", tv)
			}
		}
	})
}
