package baseline

import (
	"fmt"
	"testing"

	"pargeo/internal/bdltree"
	"pargeo/internal/generators"
	"pargeo/internal/kdtree"
)

func BenchmarkConstruction(b *testing.B) {
	pts := generators.UniformCube(100000, 5, 1)
	for _, v := range []struct {
		name string
		mk   func() Dynamic
	}{
		{"B1", func() Dynamic { return NewB1(5, kdtree.ObjectMedian) }},
		{"B2", func() Dynamic { return NewB2(5, kdtree.ObjectMedian) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.mk().Insert(pts)
			}
		})
	}
}

// BenchmarkFig11 times Figure 11's operations on 50 000 7-D uniform points:
// construction, ten 10 % batch inserts, ten 10 % batch deletes, full 5-NN.
func BenchmarkFig11(b *testing.B) {
	pts := generators.UniformCube(50000, 7, 1)
	batch := pts.Len() / 10
	variants := []struct {
		name string
		mk   func() Dynamic
	}{
		{"B1-object", func() Dynamic { return NewB1(7, kdtree.ObjectMedian) }},
		{"B2-object", func() Dynamic { return NewB2(7, kdtree.ObjectMedian) }},
		{"BDL-object", func() Dynamic { return bdltree.New(7, bdltree.Options{Split: kdtree.ObjectMedian}) }},
		{"BDL-spatial", func() Dynamic { return bdltree.New(7, bdltree.Options{Split: kdtree.SpatialMedian}) }},
	}
	for _, v := range variants {
		b.Run("construct/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.mk().Insert(pts)
			}
		})
		b.Run("insert10pct/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := v.mk()
				for j := 0; j < 10; j++ {
					tr.Insert(pts.Slice(j*batch, (j+1)*batch))
				}
			}
		})
		b.Run("delete10pct/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := v.mk()
				tr.Insert(pts)
				b.StartTimer()
				for j := 0; j < 10; j++ {
					tr.Delete(pts.Slice(j*batch, (j+1)*batch))
				}
			}
		})
		b.Run("knn5/"+v.name, func(b *testing.B) {
			tr := v.mk()
			ids := tr.Insert(pts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.KNN(pts, 5, ids)
			}
		})
	}
}

// BenchmarkFig14 times Figure 14's k-NN on 25 000 7-D uniform points
// inserted in twenty 5 % batches.
func BenchmarkFig14(b *testing.B) {
	pts := generators.UniformCube(25000, 7, 1)
	batch := pts.Len() / 20
	variants := []struct {
		name string
		mk   func() Dynamic
	}{
		{"B1", func() Dynamic { return NewB1(7, kdtree.ObjectMedian) }},
		{"B2", func() Dynamic { return NewB2(7, kdtree.ObjectMedian) }},
		{"BDL", func() Dynamic { return bdltree.New(7, bdltree.Options{Split: kdtree.ObjectMedian}) }},
	}
	for _, v := range variants {
		for _, k := range []int{2, 5, 11} {
			b.Run(fmt.Sprintf("%s/k=%d", v.name, k), func(b *testing.B) {
				tr := v.mk()
				var ids []int32
				for i := 0; i < 20; i++ {
					ids = append(ids, tr.Insert(pts.Slice(i*batch, (i+1)*batch))...)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.KNN(pts, k, ids)
				}
			})
		}
	}
}
