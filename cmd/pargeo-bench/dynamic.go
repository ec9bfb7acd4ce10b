package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"

	"pargeo/internal/baseline"
	"pargeo/internal/bdltree"
	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
)

// dynVariant is one structure of the §6.3 comparison. mk receives the
// whole data set, whose bounding box the Zd-tree quantizes over.
type dynVariant struct {
	name string
	mk   func(pts geom.Points) baseline.Dynamic
}

// dynVariants is the one variant table of fig11, fig14 and zdcompare.
var dynVariants = []dynVariant{
	{"B1-object", func(p geom.Points) baseline.Dynamic { return baseline.NewB1(p.Dim, kdtree.ObjectMedian) }},
	{"B1-spatial", func(p geom.Points) baseline.Dynamic { return baseline.NewB1(p.Dim, kdtree.SpatialMedian) }},
	{"B2-object", func(p geom.Points) baseline.Dynamic { return baseline.NewB2(p.Dim, kdtree.ObjectMedian) }},
	{"B2-spatial", func(p geom.Points) baseline.Dynamic { return baseline.NewB2(p.Dim, kdtree.SpatialMedian) }},
	{"BDL-object", func(p geom.Points) baseline.Dynamic {
		return bdltree.New(p.Dim, bdltree.Options{Split: kdtree.ObjectMedian})
	}},
	{"BDL-spatial", func(p geom.Points) baseline.Dynamic {
		return bdltree.New(p.Dim, bdltree.Options{Split: kdtree.SpatialMedian})
	}},
	{"Zd-tree", func(p geom.Points) baseline.Dynamic { return baseline.NewZdTree(p.Dim, geom.BoundingBoxAll(p)) }},
}

// pick returns the named variants, in the order named.
func pick(names ...string) []dynVariant {
	out := make([]dynVariant, len(names))
	for i, name := range names {
		out[i] = dynVariants[slices.IndexFunc(dynVariants, func(v dynVariant) bool { return v.name == name })]
	}
	return out
}

// dynOp is one operation of Figure 11 and of the Zd-tree comparison: run
// times it on a fresh structure over pts, every point of which it
// processes once, and returns the seconds.
type dynOp struct {
	fig11, zd string // the row names of the two experiments
	run       func(tr baseline.Dynamic, pts geom.Points) float64
}

var dynOps = []dynOp{
	{"(a) construction", "construction", func(tr baseline.Dynamic, pts geom.Points) float64 {
		return timeIt(func() { tr.Insert(pts) })
	}},
	{"(b) 10% batch insert", "10% insert", func(tr baseline.Dynamic, pts geom.Points) float64 {
		return timeIt(func() { forBatches(pts, 10, func(b geom.Points) { tr.Insert(b) }) })
	}},
	{"(c) 10% batch delete", "10% delete", func(tr baseline.Dynamic, pts geom.Points) float64 {
		tr.Insert(pts)
		return timeIt(func() { forBatches(pts, 10, func(b geom.Points) { tr.Delete(b) }) })
	}},
	{"(d) full k-NN (k=5)", "full 5-NN", func(tr baseline.Dynamic, pts geom.Points) float64 {
		ids := tr.Insert(pts)
		return timeIt(func() { tr.KNN(pts, 5, ids) })
	}},
}

// forBatches calls f on each of parts consecutive slices of pts.
func forBatches(pts geom.Points, parts int, f func(geom.Points)) {
	for i := 0; i < parts; i++ {
		f(pts.Slice(i*pts.Len()/parts, (i+1)*pts.Len()/parts))
	}
}

// measure times op on a fresh instance of each variant at p threads and
// returns the seconds in vs's order, and the cross-check of the structures
// the operation leaves.
func measure(vs []dynVariant, op dynOp, pts geom.Points, p int) ([]float64, error) {
	secs := make([]float64, len(vs))
	sigs := make([]string, len(vs))
	for i, v := range vs {
		tr := v.mk(pts)
		withThreads(p, func() { secs[i] = op.run(tr, pts) })
		sigs[i] = signature(tr, pts)
	}
	return secs, crossCheck(vs, sigs, op.fig11)
}

// signature is what the cross-check compares: the live size and the sorted
// 8-NN distances of 64 sampled queries. Every structure numbers its points
// from 0 in insertion order and every operation inserts pts in order, so
// id i is row i of pts.
func signature(tr baseline.Dynamic, pts geom.Points) string {
	n := pts.Len()
	qs := geom.NewPoints(min(n, 64), pts.Dim)
	for i := 0; i < qs.Len(); i++ {
		qs.Set(i, pts.At(i*n/qs.Len()))
	}
	var b strings.Builder
	fmt.Fprint(&b, tr.Size())
	for i, ids := range tr.KNN(qs, 8, nil) {
		ds := make([]float64, len(ids))
		for j, id := range ids {
			ds[j] = geom.SqDist(qs.At(i), pts.At(int(id)))
		}
		slices.Sort(ds)
		fmt.Fprint(&b, ds)
	}
	return b.String()
}

// crossCheck returns an error naming every variant whose signature after
// op differs from BDL-object's, which every experiment's table includes.
func crossCheck(vs []dynVariant, sigs []string, op string) error {
	ref := slices.IndexFunc(vs, func(v dynVariant) bool { return v.name == "BDL-object" })
	var bad []string
	for i, s := range sigs {
		if s != sigs[ref] {
			bad = append(bad, vs[i].name)
		}
	}
	if bad != nil {
		return fmt.Errorf("cross-check after %s: %v disagree with %s on size or k-NN distances", op, bad, vs[ref].name)
	}
	return nil
}

// mustPass ends the process with status 1 if a cross-check failed.
func mustPass(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// fig11 regenerates Figure 11: throughput (points/s or queries/s) of
// construction, 10% batch insertion, 10% batch deletion, and full k-NN on
// 7D uniform data, as the thread count varies.
func fig11(n int, seed uint64, threads []int) {
	fmt.Println("=== Figure 11: BDL-tree throughput vs threads, 7D uniform ===")
	pts := generators.UniformCube(n, 7, seed)
	vs := pick("B1-object", "B1-spatial", "B2-object", "B2-spatial", "BDL-object", "BDL-spatial")
	for _, op := range dynOps {
		secs := make([][]float64, len(threads))
		for j, p := range threads {
			var err error
			secs[j], err = measure(vs, op, pts, p)
			mustPass(err)
		}
		fmt.Printf("\n--- %s (throughput, ops/s) ---\n", op.fig11)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprint(w, "variant")
		for _, p := range threads {
			fmt.Fprintf(w, "\tP=%d", p)
		}
		fmt.Fprintln(w)
		for i, v := range vs {
			fmt.Fprintf(w, "%s", v.name)
			for j := range threads {
				fmt.Fprintf(w, "\t%.3g", float64(n)/secs[j][i])
			}
			fmt.Fprintln(w)
		}
		w.Flush()
	}
	fmt.Println("\nPaper shape: BDL construction beats B1/B2; B2 wins batch updates")
	fmt.Println("(no rebalancing); B1/B2 beat BDL on one-shot k-NN (single balanced")
	fmt.Println("tree vs log-many trees); spatial median is faster serially but")
	fmt.Println("scales worse than object median.")
}

// fig14 regenerates Figure 14: k-NN throughput vs k after the trees are
// built by a sequence of 5% batch insertions (Appendix D: B2 degrades
// because its incrementally grown tree is unbalanced).
func fig14(n int, seed uint64) {
	fmt.Println("=== Figure 14: k-NN throughput vs k, trees built by 5-percent batches ===")
	sets := []struct {
		name string
		pts  geom.Points
	}{
		{"2D-V", generators.VisualVar(n, seed)},
		{"7D-U", generators.UniformCube(n, 7, seed+1)},
	}
	vs := pick("B1-object", "B2-object", "BDL-object")
	for _, s := range sets {
		fmt.Printf("\n--- %s ---\n", s.name)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprint(w, "variant")
		for k := 2; k <= 11; k++ {
			fmt.Fprintf(w, "\tk=%d", k)
		}
		fmt.Fprintln(w)
		sigs := make([]string, len(vs))
		for i, v := range vs {
			tr := v.mk(s.pts)
			var ids []int32
			forBatches(s.pts, 20, func(b geom.Points) { ids = append(ids, tr.Insert(b)...) })
			fmt.Fprintf(w, "%s", v.name)
			for k := 2; k <= 11; k++ {
				t := timeIt(func() { tr.KNN(s.pts, k, ids) })
				fmt.Fprintf(w, "\t%.3g", float64(s.pts.Len())/t)
			}
			fmt.Fprintln(w)
			sigs[i] = signature(tr, s.pts)
		}
		w.Flush()
		mustPass(crossCheck(vs, sigs, "5% batch inserts"))
	}
	fmt.Println("\nPaper shape: B1 best (rebuilt balanced every batch), BDL close,")
	fmt.Println("B2 significantly worse — its incrementally grown tree is unbalanced.")
}

// zdCompare regenerates the §6.3 Zd-tree comparison on 3D uniform data:
// Figure 11's four operations, BDL-tree vs the (simplified) Zd-tree. The
// paper reports the BDL-tree 3.3x/23.1x/45.8x slower for
// construction/insert/delete — the Morton sort is simply much cheaper
// than kd-tree building in 3D — but at parity for k-NN, and notes the
// Zd-tree approach does not extend beyond low dimensions.
func zdCompare(n int, seed uint64) {
	fmt.Println("=== §6.3: BDL-tree vs Zd-tree (3D uniform) ===")
	pts := generators.UniformCube(n, 3, seed)
	vs := pick("Zd-tree", "BDL-object")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "operation\tZd-tree(ms)\tBDL(ms)\tBDL/Zd")
	for _, op := range dynOps {
		s, err := measure(vs, op, pts, runtime.GOMAXPROCS(0))
		mustPass(err)
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1fx\n", op.zd, ms(s[0]), ms(s[1]), s[1]/s[0])
	}
	w.Flush()
	fmt.Println("\nPaper reference (3D-U-10M, 36 cores): BDL 3.3x, 23.1x, 45.8x slower")
	fmt.Println("for construction/insert/delete; roughly equal k-NN speed. The")
	fmt.Println("Zd-tree does not extend beyond ~3 dimensions (Morton bit budget).")
}
