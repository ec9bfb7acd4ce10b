package engine

import (
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
