package bdltree

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/rng"
)

func BenchmarkConstruction(b *testing.B) {
	pts := generators.UniformCube(100000, 5, 1)
	variants := []struct {
		name string
		mk   func() Dynamic
	}{
		{"BDL", func() Dynamic { return New(5, Options{}) }},
		{"B1", func() Dynamic { return NewB1(5, ObjectMedian) }},
		{"B2", func() Dynamic { return NewB2(5, ObjectMedian) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := v.mk()
				tr.Insert(pts)
			}
		})
	}
}

func BenchmarkBatchInsert(b *testing.B) {
	pts := generators.UniformCube(100000, 5, 2)
	batch := pts.Len() / 10
	for _, x := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("BDL/X=%d", x), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := New(5, Options{BufferSize: x})
				for j := 0; j < 10; j++ {
					tr.Insert(pts.Slice(j*batch, (j+1)*batch))
				}
			}
		})
	}
}

func BenchmarkKNNOverTrees(b *testing.B) {
	// k-NN cost vs the number of live static trees: insert in batch
	// patterns that leave 1 vs many trees.
	pts := generators.UniformCube(60000, 3, 3)
	b.Run("one-tree", func(b *testing.B) {
		tr := New(3, Options{BufferSize: 1024})
		ids := tr.Insert(pts.Slice(0, 1<<15)) // 32768 = one tree exactly... roughly
		q := pts.Slice(0, 5000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.KNN(q, 5, ids[:5000])
		}
	})
	b.Run("many-trees", func(b *testing.B) {
		tr := New(3, Options{BufferSize: 1024})
		var ids []int32
		for j := 0; j*6000 < (1 << 15); j++ {
			lo := j * 6000
			hi := lo + 6000
			if hi > 1<<15 {
				hi = 1 << 15
			}
			ids = append(ids, tr.Insert(pts.Slice(lo, hi))...)
		}
		q := pts.Slice(0, 5000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.KNN(q, 5, ids[:5000])
		}
	})
}

// BenchmarkLevelBuild times one level's construction over points and ids
// it owns. A level partitions its input in place, so every iteration
// builds over a fresh copy, made with the timer stopped.
func BenchmarkLevelBuild(b *testing.B) {
	pts := generators.UniformCube(100000, 3, 4)
	ids := make([]int32, pts.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		own := geom.Points{Data: slices.Clone(pts.Data), Dim: pts.Dim}
		ownIDs := slices.Clone(ids)
		b.StartTimer()
		newLevel(own, ownIDs, ObjectMedian)
	}
}

// BenchmarkLadderKNN is the tree rung of the read path, reproducible with
// `go test -bench LadderKNN` alone: k = 8 queries through a 6-level ladder
// (plus buffer tree) over ≈ 516 k clustered 2-D points — the shape of the
// benchmark's D2 — against one static kd-tree over the same points. Three
// queries in four are jittered data points, every fourth is uniform in the
// bounding box (the far-backtracking population).
func BenchmarkLadderKNN(b *testing.B) {
	const n = 0b111111000*DefaultBufferSize + 300
	pts := generators.VisualVar(n, 2022)
	box := geom.BoundingBoxAll(pts)
	r := rng.NewXoshiro256(7)
	queries := geom.NewPoints(4096, 2)
	for i := 0; i < queries.Len(); i++ {
		q := queries.At(i)
		if i%4 != 3 {
			p := pts.At(r.Intn(n))
			q[0], q[1] = p[0]+r.Float64()-0.5, p[1]+r.Float64()-0.5
		} else {
			q[0] = box.Min[0] + r.Float64()*(box.Max[0]-box.Min[0])
			q[1] = box.Min[1] + r.Float64()*(box.Max[1]-box.Min[1])
		}
	}
	ladder := New(2, Options{})
	ladder.Insert(pts)
	if got := ladder.NumTrees(); got != 6 {
		b.Fatalf("ladder has %d levels, want 6", got)
	}
	static := kdtree.Build(pts, kdtree.Options{})
	buf := kdtree.NewKNNBuffer(8)
	b.Run("ladder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.Reset()
			ladder.KNNInto(queries.At(i%queries.Len()), -1, buf)
		}
	})
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.Reset()
			static.KNNInto(queries.At(i%queries.Len()), -1, buf)
		}
	})
}

// BenchmarkChurnDelete is the tree rung of the write path, reproducible
// with `go test -bench ChurnDelete` alone: the benchmark's embed-churn
// stream — a 200 k uniform 3-D base, each update inserting 512 fresh
// points and deleting the 512 inserted 64 updates earlier (base slices to
// begin with) — with the deletion's two halves timed apart: erase (locate
// and tombstone) and rebalance (rebuild what fell below half capacity).
// ns/op and allocs/op cover both halves; the insertions run off the clock.
func BenchmarkChurnDelete(b *testing.B) {
	const n, batch, lag = 200_000, 512, 64
	base := generators.UniformCube(n, 3, 5)
	box := geom.BoundingBoxAll(base)
	r := rng.NewXoshiro256(9)
	tr := New(3, Options{})
	tr.Insert(base)
	queue := make([]geom.Points, lag)
	for i := range queue {
		queue[i] = base.Slice(i*batch, (i+1)*batch)
	}
	var eraseNs, rebalanceNs time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ins := geom.NewPoints(batch, 3)
		for j := range ins.Data {
			ins.Data[j] = box.Min[j%3] + r.Float64()*(box.Max[j%3]-box.Min[j%3])
		}
		tr.Insert(ins)
		del := queue[0]
		queue = append(queue[1:], ins)
		b.StartTimer()
		t0 := time.Now()
		if got := tr.erase(del); got != batch {
			b.Fatalf("update %d erased %d of %d", i, got, batch)
		}
		t1 := time.Now()
		tr.insertWithIDs(geom.Points{Dim: 3}, nil)
		eraseNs += t1.Sub(t0)
		rebalanceNs += time.Since(t1)
	}
	b.ReportMetric(float64(eraseNs)/float64(b.N), "erase-ns/op")
	b.ReportMetric(float64(rebalanceNs)/float64(b.N), "rebalance-ns/op")
}
