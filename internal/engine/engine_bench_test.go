package engine

import (
	"fmt"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/rng"
)

// BenchmarkChurnUpdate is the engine rung of the write path, reproducible
// with `go test -bench ChurnUpdate` alone: the benchmark's embed-churn
// stream (see bdltree's BenchmarkChurnDelete — 200 k uniform 3-D base, each
// update inserting 512 fresh points and deleting the 512 inserted 64
// updates earlier) through Engine.Update on a non-durable 4-shard engine,
// so one op is route, four shard commits of ≈ 128 + 128 rows, publish.
func BenchmarkChurnUpdate(b *testing.B) {
	const n, batch, lag = 200_000, 512, 64
	base := generators.UniformCube(n, 3, 5)
	box := geom.BoundingBoxAll(base)
	r := rng.NewXoshiro256(9)
	e := New(3, Options{Shards: 4})
	defer e.Close()
	if res := e.Insert(base); res.Err != nil {
		b.Fatal(res.Err)
	}
	queue := make([]geom.Points, lag)
	for i := range queue {
		queue[i] = base.Slice(i*batch, (i+1)*batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ins := geom.NewPoints(batch, 3)
		for j := range ins.Data {
			ins.Data[j] = box.Min[j%3] + r.Float64()*(box.Max[j%3]-box.Min[j%3])
		}
		del := queue[0]
		queue = append(queue[1:], ins)
		b.StartTimer()
		if res := e.Update(ins, del); res.Err != nil || res.Deleted != batch {
			b.Fatalf("update %d: deleted %d of %d, err %v", i, res.Deleted, batch, res.Err)
		}
	}
}

// BenchmarkSmallInsert is the engine rung of the small-batch write path:
// Engine.Update of b fresh points on a non-durable 4-shard engine holding
// 500 k uniform 2-D points, so a shard's share of one op is b/4 points. Up
// to b = 64 most ops rebuild only each shard's open leaf (bdltree's package
// comment has the table); at 256 and 512 every op rebuilds the buffer
// trees, as all of them did before the open leaf. Reports ns/pt beside
// ns/op.
func BenchmarkSmallInsert(b *testing.B) {
	base := generators.UniformCube(500_000, 2, 5)
	box := geom.BoundingBoxAll(base)
	e := New(2, Options{Shards: 4})
	defer e.Close()
	if res := e.Insert(base); res.Err != nil {
		b.Fatal(res.Err)
	}
	r := rng.NewXoshiro256(9)
	for _, batch := range []int{1, 16, 64, 256, 512} {
		b.Run(fmt.Sprintf("b=%d", batch), func(b *testing.B) {
			fresh := geom.NewPoints(b.N*batch, 2)
			for j := range fresh.Data {
				fresh.Data[j] = box.Min[j%2] + r.Float64()*(box.Max[j%2]-box.Min[j%2])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := e.Insert(fresh.Slice(i*batch, (i+1)*batch)); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pt")
		})
	}
}

// TestSmallUpdateBytes holds BenchmarkSmallInsert's b=16 rung at tier 1: a
// 16-point Engine.Update on a 4-shard engine of 200 k points allocates what
// four open-leaf rebuilds and, one call in sixteen, four buffer-tree
// rebuilds allocate — 23 kB a call here, 32 kB on the benchmark's engine.
// Rebuilding every shard's buffer tree on every call was 125 and 135 kB.
// Averaged over 256 calls, which put 1 024 points
// — one whole turn of the buffer tree — into every shard, so the figure does
// not depend on how full the founding commit left the buffers.
func TestSmallUpdateBytes(t *testing.T) {
	const calls = 256
	e := New(2, Options{Shards: 4})
	defer e.Close()
	// One draw, so that the fresh points spread over the base's cube (its
	// side grows with the count) and every call reaches all four shards.
	pts := generators.UniformCube(200_000+calls*16, 2, 5)
	if res := e.Insert(pts.Slice(0, 200_000)); res.Err != nil {
		t.Fatal(res.Err)
	}
	fresh := pts.Slice(200_000, pts.Len())
	bytes := allocatedBytes(func() {
		for i := 0; i < calls; i++ {
			if res := e.Insert(fresh.Slice(i*16, (i+1)*16)); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}) / calls
	t.Logf("16-point update: %d B/call", bytes)
	if !raceEnabled && bytes > 48_000 {
		t.Errorf("16-point update allocated %d B/call, limit 48 000", bytes)
	}
}
