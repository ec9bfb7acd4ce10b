package kdtree

import (
	"fmt"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

// pastF32 returns a copy of coords scaled past F32SafeMax. A tree built
// over such points keeps its float32 leaf filter off, so the f64
// sub-benchmarks time the float64 fallback on the same workload shape and
// the delta to their neighbour is the filter's contribution.
func pastF32(coords []float64) []float64 {
	out := make([]float64, len(coords))
	for i, v := range coords {
		out[i] = v * 1e20
	}
	return out
}

// buildPastF32 builds the fallback tree over pts scaled by pastF32.
func buildPastF32(b *testing.B, pts geom.Points) (geom.Points, *Tree) {
	pts64 := geom.Points{Data: pastF32(pts.Data), Dim: pts.Dim}
	t := Build(pts64, Options{})
	if t.f32ok {
		b.Fatal("tree over coordinates past F32SafeMax still has its f32 filter on")
	}
	return pts64, t
}

func BenchmarkBuild(b *testing.B) {
	for _, dim := range []int{2, 5} {
		for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
			pts := generators.UniformCube(100000, dim, uint64(dim))
			b.Run(fmt.Sprintf("d=%d/%s", dim, split), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Build(pts, Options{Split: split})
				}
			})
		}
	}
}

// BenchmarkKNNQuery times one k-NN query through KNNInto. The 3-D arms
// sweep k: the buffer's heap costs O(log k) per accepted candidate.
func BenchmarkKNNQuery(b *testing.B) {
	run := func(name string, pts geom.Points, t *Tree, k int) {
		b.Run(name, func(b *testing.B) {
			buf := NewKNNBuffer(k)
			for i := 0; i < b.N; i++ {
				buf.Reset()
				q := i % pts.Len()
				t.KNNInto(pts.At(q), int32(q), buf)
			}
		})
	}
	for _, dim := range []int{2, 5, 7} {
		pts := generators.UniformCube(100000, dim, uint64(dim))
		run(fmt.Sprintf("d=%d/k=5", dim), pts, Build(pts, Options{}), 5)
		pts64, t64 := buildPastF32(b, pts)
		run(fmt.Sprintf("d=%d/k=5/f64", dim), pts64, t64, 5)
	}
	pts := generators.UniformCube(100000, 3, 3)
	t := Build(pts, Options{})
	for _, k := range []int{1, 16, 64, 256} {
		run(fmt.Sprintf("d=3/k=%d", k), pts, t, k)
	}
}

func BenchmarkKNNBatch(b *testing.B) {
	pts := generators.UniformCube(100000, 2, 9)
	t := Build(pts, Options{})
	queries := make([]int32, pts.Len())
	for i := range queries {
		queries[i] = int32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.KNN(queries, 5)
	}
}

func BenchmarkRangeSearch(b *testing.B) {
	pts := generators.UniformCube(100000, 3, 10)
	t := Build(pts, Options{})
	boxes := make([]geom.Box, 256)
	for i := range boxes {
		c := pts.At(i * 390)
		bx := geom.EmptyBox(3)
		bx.Expand([]float64{c[0] - 6, c[1] - 6, c[2] - 6})
		bx.Expand([]float64{c[0] + 6, c[1] + 6, c[2] + 6})
		boxes[i] = bx
	}
	run := func(name string, t *Tree, boxes []geom.Box) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.RangeSearchParallel(boxes)
			}
		})
	}
	run("f32", t, boxes)
	_, t64 := buildPastF32(b, pts)
	boxes64 := make([]geom.Box, len(boxes))
	for i, bx := range boxes {
		boxes64[i] = geom.Box{Min: pastF32(bx.Min), Max: pastF32(bx.Max)}
	}
	run("f64", t64, boxes64)
}

func BenchmarkAllKNN(b *testing.B) {
	for _, dim := range []int{2, 5} {
		pts := generators.UniformCube(100000, dim, uint64(dim))
		run := func(name string, t *Tree) {
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					t.AllKNN(5, nil)
				}
			})
		}
		run(fmt.Sprintf("d=%d/k=5", dim), Build(pts, Options{}))
		_, t64 := buildPastF32(b, pts)
		run(fmt.Sprintf("d=%d/k=5/f64", dim), t64)
	}
	// paper-batch's kdtree.allknn stage: its u2 input at seed 1.
	pts := generators.UniformCube(250000, 2, 4)
	t := Build(pts, Options{})
	b.Run("d=2/k=5/n=250000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.AllKNN(5, nil)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pts.Len()), "ns/pt")
	})
}

func BenchmarkKNNBufferInsert(b *testing.B) {
	buf := NewKNNBuffer(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Insert(int32(i), float64((i*2654435761)&0xffff))
	}
}
