package main

import (
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"

	"pargeo/internal/bdltree"
	"pargeo/internal/closestpair"
	"pargeo/internal/delaunay"
	"pargeo/internal/emst"
	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/graphgen"
	"pargeo/internal/hull2d"
	"pargeo/internal/hull3d"
	"pargeo/internal/kdtree"
	"pargeo/internal/morton"
	"pargeo/internal/seb"
	"pargeo/internal/wspd"
)

// table1 regenerates Table 1: single-thread time T1, all-thread time Tp,
// and self-relative speedup for every ParGeo operation, on uniform data.
// The paper's column "T36h" becomes "Tp" at the host's GOMAXPROCS.
func table1(n int, seed uint64) {
	fmt.Println("=== Table 1: runtimes (s) and self-relative speedups, uniform data ===")
	u2 := generators.UniformCube(n, 2, seed)
	u3 := generators.UniformCube(n, 3, seed+1)
	u5 := generators.UniformCube(n, 5, seed+2)
	u7 := generators.UniformCube(n, 7, seed+3)

	// The graph generators are super-linear in practice; scale them down so
	// "all" stays tractable on small machines.
	gn := n / 4
	if gn < 1000 {
		gn = n
	}
	g2 := generators.UniformCube(gn, 2, seed+4)

	queries2 := make([]int32, u2.Len())
	for i := range queries2 {
		queries2[i] = int32(i)
	}

	rangeBoxes := func(pts geom.Points, w float64) []geom.Box {
		out := make([]geom.Box, 1000)
		for i := range out {
			c := pts.At(i * (pts.Len() / len(out)))
			b := geom.EmptyBox(pts.Dim)
			lo := make([]float64, pts.Dim)
			hi := make([]float64, pts.Dim)
			for d := 0; d < pts.Dim; d++ {
				lo[d], hi[d] = c[d]-w, c[d]+w
			}
			b.Expand(lo)
			b.Expand(hi)
			out[i] = b
		}
		return out
	}

	rows := []struct {
		name string
		f    func()
	}{
		{"kd-tree Build (2d)", func() { kdtree.Build(u2, kdtree.Options{}) }},
		{"kd-tree Build (5d)", func() { kdtree.Build(u5, kdtree.Options{}) }},
		{"kd-tree k-NN (2d)", func() {
			t := kdtree.Build(u2, kdtree.Options{})
			t.KNN(queries2, 5)
		}},
		{"kd-tree Range Search (2d)", func() {
			t := kdtree.Build(u2, kdtree.Options{})
			t.RangeSearchParallel(rangeBoxes(u2, 8))
		}},
		{"Batch-dynamic kd-tree Construction (5d)", func() {
			tr := bdltree.New(5, bdltree.Options{})
			tr.Insert(u5)
		}},
		{"Batch-dynamic kd-tree Insert (5d)", func() {
			tr := bdltree.New(5, bdltree.Options{})
			b := u5.Len() / 10
			for i := 0; i < 10; i++ {
				tr.Insert(u5.Slice(i*b, (i+1)*b))
			}
		}},
		{"Batch-dynamic kd-tree Delete (5d)", func() {
			tr := bdltree.New(5, bdltree.Options{})
			tr.Insert(u5)
			b := u5.Len() / 10
			for i := 0; i < 10; i++ {
				tr.Delete(u5.Slice(i*b, (i+1)*b))
			}
		}},
		{"WSPD (2d)", func() {
			t := kdtree.Build(u2, kdtree.Options{LeafSize: 1})
			wspd.Compute(t, 2.0)
		}},
		{"EMST (2d)", func() { emst.Compute(u2) }},
		{"Convex Hull (2d)", func() { hull2d.DivideConquer(u2) }},
		{"Convex Hull (3d)", func() { hull3d.DivideConquer(u3) }},
		{"Smallest Enclosing Ball (2d)", func() { seb.Sampling(u2, seed) }},
		{"Smallest Enclosing Ball (5d)", func() { seb.Sampling(u5, seed) }},
		{"Closest Pair (2d)", func() { closestpair.ClosestPair(u2) }},
		{"Closest Pair (3d)", func() { closestpair.ClosestPair(u3) }},
		{"k-NN Graph (2d)", func() { graphgen.KNNGraph(g2, 5) }},
		{"Delaunay Graph (2d)", func() { delaunay.Parallel(g2, seed) }},
		{"Gabriel Graph (2d)", func() { graphgen.GabrielGraph(g2, seed) }},
		{"Beta-skeleton Graph (2d)", func() { graphgen.BetaSkeleton(g2, 1.5, seed) }},
		{"Spanner (2d)", func() { graphgen.Spanner(g2, 6) }},
		{"Morton Sort (5d)", func() { morton.Sort(u5) }},
		{"BDL-tree full k-NN (7d)", func() {
			tr := bdltree.New(7, bdltree.Options{})
			ids := tr.Insert(u7)
			tr.KNN(u7, 5, ids)
		}},
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Implementation\tT1\tT%d\tSpeedup\n", runtime.NumCPU())
	for _, row := range rows {
		t1 := withThreads(1, row.f)
		tp := withThreads(runtime.NumCPU(), row.f)
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.2fx\n", row.name, t1, tp, t1/tp)
	}
	w.Flush()
	fmt.Println("\nPaper reference (36 cores, 10M points): speedups 8.1x-46.6x, avg 23.2x.")
	fmt.Println("On a 1-core host the speedup column is ~1x by construction.")
}
