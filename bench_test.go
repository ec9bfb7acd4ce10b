package pargeo

// testing.B benchmarks, one family per table/figure of the paper's
// evaluation (§6). Run with:
//
//	go test -bench=. -benchmem
//
// Sizes are scaled down from the paper's 10M so the suite completes in
// minutes; pass -benchn to taste via the BENCH_N environment-free default
// below (the cmd/pargeo-bench harness handles large-scale runs and thread
// sweeps).

import (
	"fmt"
	"testing"

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

const benchN = 50000

// --- Table 1 -------------------------------------------------------------

func BenchmarkTable1KdTreeBuild2D(b *testing.B) {
	pts := generators.UniformCube(benchN, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kdtree.Build(pts, kdtree.Options{})
	}
}

func BenchmarkTable1KdTreeBuild5D(b *testing.B) {
	pts := generators.UniformCube(benchN, 5, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kdtree.Build(pts, kdtree.Options{})
	}
}

func BenchmarkTable1KdTreeKNN2D(b *testing.B) {
	pts := generators.UniformCube(benchN, 2, 3)
	t := kdtree.Build(pts, kdtree.Options{})
	queries := make([]int32, pts.Len())
	for i := range queries {
		queries[i] = int32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.KNN(queries, 5)
	}
}

func BenchmarkTable1KdTreeRange2D(b *testing.B) {
	pts := generators.UniformCube(benchN, 2, 4)
	t := kdtree.Build(pts, kdtree.Options{})
	boxes := make([]geom.Box, 1000)
	for i := range boxes {
		c := pts.At(i * (pts.Len() / len(boxes)))
		bx := geom.EmptyBox(2)
		bx.Expand([]float64{c[0] - 8, c[1] - 8})
		bx.Expand([]float64{c[0] + 8, c[1] + 8})
		boxes[i] = bx
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.RangeSearchParallel(boxes)
	}
}

func BenchmarkTable1BDLConstruction5D(b *testing.B) {
	pts := generators.UniformCube(benchN, 5, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := bdltree.New(5, bdltree.Options{})
		tr.Insert(pts)
	}
}

func BenchmarkTable1BDLInsert5D(b *testing.B) {
	pts := generators.UniformCube(benchN, 5, 6)
	batch := pts.Len() / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := bdltree.New(5, bdltree.Options{})
		for j := 0; j < 10; j++ {
			tr.Insert(pts.Slice(j*batch, (j+1)*batch))
		}
	}
}

func BenchmarkTable1BDLDelete5D(b *testing.B) {
	pts := generators.UniformCube(benchN, 5, 7)
	batch := pts.Len() / 10
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := bdltree.New(5, bdltree.Options{})
		tr.Insert(pts)
		b.StartTimer()
		for j := 0; j < 10; j++ {
			tr.Delete(pts.Slice(j*batch, (j+1)*batch))
		}
	}
}

func BenchmarkTable1WSPD2D(b *testing.B) {
	pts := generators.UniformCube(benchN, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := kdtree.Build(pts, kdtree.Options{LeafSize: 1})
		wspd.Compute(t, 2.0)
	}
}

func BenchmarkTable1EMST2D(b *testing.B) {
	pts := generators.UniformCube(benchN/2, 2, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emst.Compute(pts)
	}
}

func BenchmarkTable1ConvexHull2D(b *testing.B) {
	pts := generators.UniformCube(benchN, 2, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hull2d.DivideConquer(pts)
	}
}

func BenchmarkTable1ConvexHull3D(b *testing.B) {
	pts := generators.UniformCube(benchN, 3, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hull3d.DivideConquer(pts)
	}
}

func BenchmarkTable1SEB2D(b *testing.B) {
	pts := generators.UniformCube(benchN, 2, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seb.Sampling(pts, 1)
	}
}

func BenchmarkTable1SEB5D(b *testing.B) {
	pts := generators.UniformCube(benchN, 5, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seb.Sampling(pts, 1)
	}
}

func BenchmarkTable1ClosestPair2D(b *testing.B) {
	pts := generators.UniformCube(benchN, 2, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closestpair.ClosestPair(pts)
	}
}

func BenchmarkTable1ClosestPair3D(b *testing.B) {
	pts := generators.UniformCube(benchN, 3, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closestpair.ClosestPair(pts)
	}
}

func BenchmarkTable1KNNGraph2D(b *testing.B) {
	pts := generators.UniformCube(benchN/2, 2, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphgen.KNNGraph(pts, 5)
	}
}

func BenchmarkTable1DelaunayGraph2D(b *testing.B) {
	pts := generators.UniformCube(benchN/2, 2, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delaunay.Parallel(pts, 1)
	}
}

func BenchmarkTable1GabrielGraph2D(b *testing.B) {
	pts := generators.UniformCube(benchN/2, 2, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphgen.GabrielGraph(pts, 1)
	}
}

func BenchmarkTable1BetaSkeleton2D(b *testing.B) {
	pts := generators.UniformCube(benchN/2, 2, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphgen.BetaSkeleton(pts, 1.5, 1)
	}
}

func BenchmarkTable1Spanner2D(b *testing.B) {
	pts := generators.UniformCube(benchN/2, 2, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphgen.Spanner(pts, 6)
	}
}

func BenchmarkTable1MortonSort5D(b *testing.B) {
	pts := generators.UniformCube(benchN, 5, 21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		morton.Sort(pts)
	}
}

// --- Figure 8 (2D hull across data sets and algorithms) -------------------

func BenchmarkFig8(b *testing.B) {
	sets := []struct {
		name string
		pts  geom.Points
	}{
		{"2D-IS", generators.InSphere(benchN, 2, 1)},
		{"2D-OS", generators.OnSphere(benchN, 2, 2)},
		{"2D-U", generators.UniformCube(benchN, 2, 3)},
		{"2D-OC", generators.OnCube(benchN, 2, 4)},
	}
	algs := []struct {
		name string
		f    func(geom.Points) []int32
	}{
		{"CGALseq", hull2d.MonotoneChain},
		{"Qhullseq", hull2d.SequentialQuickhull},
		{"RandInc", func(p geom.Points) []int32 { return hull2d.RandInc(p, 1) }},
		{"QuickHull", hull2d.Quickhull},
		{"DivideConquer", hull2d.DivideConquer},
	}
	for _, s := range sets {
		for _, a := range algs {
			b.Run(fmt.Sprintf("%s/%s", s.name, a.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.f(s.pts)
				}
			})
		}
	}
}

// --- Figure 9 (3D hull across data sets and algorithms) -------------------

func BenchmarkFig9(b *testing.B) {
	sets := []struct {
		name string
		pts  geom.Points
	}{
		{"3D-IS", generators.InSphere(benchN, 3, 1)},
		{"3D-OS", generators.OnSphere(benchN, 3, 2)},
		{"3D-U", generators.UniformCube(benchN, 3, 3)},
		{"3D-OC", generators.OnCube(benchN, 3, 4)},
		{"3D-Thai", generators.Statue(benchN/2, 5)},
		{"3D-Dragon", generators.Dragon(benchN*36/100, 6)},
	}
	algs := []struct {
		name string
		f    func(geom.Points) [][3]int32
	}{
		{"CGALseq", func(p geom.Points) [][3]int32 { return hull3d.SequentialRandInc(p, 1) }},
		{"Qhullseq", hull3d.SequentialQuickhull},
		{"RandInc", func(p geom.Points) [][3]int32 { return hull3d.RandInc(p, 1) }},
		{"QuickHull", hull3d.Quickhull},
		{"DivideConquer", hull3d.DivideConquer},
		{"Pseudo", hull3d.Pseudo},
	}
	for _, s := range sets {
		for _, a := range algs {
			b.Run(fmt.Sprintf("%s/%s", s.name, a.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.f(s.pts)
				}
			})
		}
	}
}

// --- Figure 10 (SEB across data sets and algorithms) ----------------------

func BenchmarkFig10(b *testing.B) {
	sets := []struct {
		name string
		pts  geom.Points
	}{
		{"2D-IS", generators.InSphere(benchN, 2, 1)},
		{"2D-OS", generators.OnSphere(benchN, 2, 2)},
		{"3D-IS", generators.InSphere(benchN, 3, 3)},
		{"3D-OS", generators.OnSphere(benchN, 3, 4)},
		{"2D-U", generators.UniformCube(benchN, 2, 5)},
		{"3D-U", generators.UniformCube(benchN, 3, 6)},
	}
	algs := []struct {
		name string
		f    func(geom.Points) seb.Ball
	}{
		{"CGALseq", func(p geom.Points) seb.Ball { return seb.WelzlSequential(p, 1, seb.Heuristics{}) }},
		{"Welzl", func(p geom.Points) seb.Ball { return seb.Welzl(p, 1, seb.Heuristics{}) }},
		{"WelzlMtf", func(p geom.Points) seb.Ball { return seb.Welzl(p, 1, seb.Heuristics{MTF: true}) }},
		{"WelzlMtfPivot", func(p geom.Points) seb.Ball { return seb.Welzl(p, 1, seb.Heuristics{MTF: true, Pivot: true}) }},
		{"Scan", seb.OrthantScan},
		{"Sampling", func(p geom.Points) seb.Ball { return seb.Sampling(p, 1) }},
	}
	for _, s := range sets {
		for _, a := range algs {
			b.Run(fmt.Sprintf("%s/%s", s.name, a.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.f(s.pts)
				}
			})
		}
	}
}

// --- Figure 12 (reservation overhead, single-thread counters) --------------

func BenchmarkFig12ReservationQuickhull(b *testing.B) {
	pts := generators.InSphere(benchN, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hull3d.Quickhull(pts)
	}
}

func BenchmarkFig12NoReservationQuickhull(b *testing.B) {
	pts := generators.InSphere(benchN, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hull3d.SequentialQuickhull(pts)
	}
}

// --- ablations (design choices DESIGN.md calls out) ------------------------

// BenchmarkAblationSplitRule compares object vs spatial median build cost
// (§6.3's discussion of the construction trade-off).
func BenchmarkAblationSplitRule(b *testing.B) {
	pts := generators.UniformCube(benchN, 5, 1)
	for _, split := range []kdtree.SplitRule{kdtree.ObjectMedian, kdtree.SpatialMedian} {
		b.Run(split.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kdtree.Build(pts, kdtree.Options{Split: split})
			}
		})
	}
}

// BenchmarkAblationBufferSize sweeps the BDL-tree buffer size X.
func BenchmarkAblationBufferSize(b *testing.B) {
	pts := generators.UniformCube(benchN/2, 5, 2)
	batch := pts.Len() / 10
	for _, x := range []int{128, 512, 1024, 4096} {
		b.Run(fmt.Sprintf("X=%d", x), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := bdltree.New(5, bdltree.Options{BufferSize: x})
				for j := 0; j < 10; j++ {
					tr.Insert(pts.Slice(j*batch, (j+1)*batch))
				}
			}
		})
	}
}

// BenchmarkAblationCullThreshold sweeps the pseudohull stop threshold.
func BenchmarkAblationCullThreshold(b *testing.B) {
	pts := generators.InSphere(benchN, 3, 3)
	for _, thr := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("thr=%d", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hull3d.PseudoWithStats(pts, thr)
			}
		})
	}
}

// BenchmarkAblationSEBSampleSegment reports sampling with different
// effective batch sizes by comparing against the plain scan.
func BenchmarkAblationSEBScanVsSampling(b *testing.B) {
	pts := generators.UniformCube(benchN, 3, 4)
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seb.OrthantScan(pts)
		}
	})
	b.Run("sampling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seb.Sampling(pts, 1)
		}
	})
}
