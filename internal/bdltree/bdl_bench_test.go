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
	b.Run("BDL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			New(5, Options{}).Insert(pts)
		}
	})
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
// levels-probed/candidate counts the levels whose filter lets a candidate
// through to a point location (every level without a filter included).
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
	var d deleteTimer
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
		if got := d.delete(b, tr, del); got != batch {
			b.Fatalf("update %d erased %d of %d", i, got, batch)
		}
	}
	d.report(b)
}

// BenchmarkPaperDelete is the paper-batch bdltree stage's deletion,
// reproducible with `go test -bench PaperDelete` alone: 100 k uniform 5-D
// points inserted in ten 10 % batches, then deleted in the same ten
// batches, with the halves and the probe count of BenchmarkChurnDelete.
// One op deletes all ten batches; the insertions run off the clock.
func BenchmarkPaperDelete(b *testing.B) {
	const n, batches = 100_000, 10
	pts := generators.UniformCube(n, 5, 5)
	tenth := n / batches
	var d deleteTimer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := New(5, Options{})
		for lo := 0; lo < n; lo += tenth {
			tr.Insert(pts.Slice(lo, lo+tenth))
		}
		for lo := 0; lo < n; lo += tenth {
			if got := d.delete(b, tr, pts.Slice(lo, lo+tenth)); got != tenth {
				b.Fatalf("batch %d erased %d of %d", lo/tenth, got, tenth)
			}
		}
		if tr.Size() != 0 {
			b.Fatalf("%d points left", tr.Size())
		}
	}
	d.report(b)
}

// deleteTimer runs Delete's two halves — erase, then the rebalancing
// insertWithIDs — on the clock and timed apart, and counts, off the clock,
// the levels each candidate is located in.
type deleteTimer struct {
	erase, rebalance time.Duration
	probed, cands    int
}

// delete deletes batch from tr and returns how many rows erase removed. The
// benchmark timer runs for the two halves only and is left stopped.
func (d *deleteTimer) delete(b *testing.B, tr *Tree, batch geom.Points) int {
	for _, l := range tr.levels() {
		for i := 0; l != nil && i < batch.Len(); i++ {
			if l.filter.mayHold(batch.At(i)) {
				d.probed++
			}
		}
	}
	d.cands += batch.Len()
	b.StartTimer()
	t0 := time.Now()
	got := tr.erase(batch)
	t1 := time.Now()
	tr.insertWithIDs(geom.Points{Dim: tr.dim}, nil)
	t2 := time.Now()
	b.StopTimer()
	d.erase += t1.Sub(t0)
	d.rebalance += t2.Sub(t1)
	return got
}

func (d *deleteTimer) report(b *testing.B) {
	b.ReportMetric(float64(d.erase)/float64(b.N), "erase-ns/op")
	b.ReportMetric(float64(d.rebalance)/float64(b.N), "rebalance-ns/op")
	b.ReportMetric(float64(d.probed)/float64(d.cands), "levels-probed/candidate")
}
