package parlay

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// oldForBlocked is the seed's pre-scheduler implementation — a flat, bounded
// goroutine fan-out (min(4·P, n/grain) blocks, one goroutine per block) —
// kept here as the benchmark baseline so the scheduler's uniform-load parity
// and skewed-load gains stay measurable.
func oldForBlocked(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	p := NumWorkers()
	if p == 1 || n <= grain {
		body(0, n)
		return
	}
	nblocks := min(4*p, (n+grain-1)/grain)
	if nblocks <= 1 {
		body(0, n)
		return
	}
	blockSize := (n + nblocks - 1) / nblocks
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += blockSize {
		hi := min(lo+blockSize, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// oldDo is the seed's Do: one goroutine per extra thunk.
func oldDo(thunks ...func()) {
	if len(thunks) == 0 {
		return
	}
	if len(thunks) == 1 || NumWorkers() == 1 {
		for _, t := range thunks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	for _, t := range thunks[1:] {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(t)
	}
	thunks[0]()
	wg.Wait()
}

// spinWork burns deterministic CPU proportional to units.
func spinWork(units int) int64 {
	var acc int64
	for i := 0; i < units; i++ {
		acc += int64(i ^ (i >> 3))
	}
	return acc
}

// skewedUnits concentrates ~90% of the loop's total work in the first 1/16
// of the index space — the shape of a kd-tree build over clustered points,
// which static block partitioning handles worst.
func skewedUnits(i, n int) int {
	if i < n/16 {
		return 2000
	}
	return 15
}

// BenchmarkForUniform{Sched,OldFanout}: parity check on an even load.
func BenchmarkForUniformSched(b *testing.B) {
	n := 1 << 20
	dst := make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForBlocked(n, 0, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				dst[j] = int64(j) * 3
			}
		})
	}
}

func BenchmarkForUniformOldFanout(b *testing.B) {
	n := 1 << 20
	dst := make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oldForBlocked(n, 0, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				dst[j] = int64(j) * 3
			}
		})
	}
}

// BenchmarkForSkewed{Sched,OldFanout}: the load-balancing case the
// scheduler exists for.
func BenchmarkForSkewedSched(b *testing.B) {
	n := 1 << 14
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForBlocked(n, 64, func(lo, hi int) {
			var acc int64
			for j := lo; j < hi; j++ {
				acc += spinWork(skewedUnits(j, n))
			}
			sink.Add(acc)
		})
	}
	_ = sink.Load()
}

func BenchmarkForSkewedOldFanout(b *testing.B) {
	n := 1 << 14
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oldForBlocked(n, 64, func(lo, hi int) {
			var acc int64
			for j := lo; j < hi; j++ {
				acc += spinWork(skewedUnits(j, n))
			}
			sink.Add(acc)
		})
	}
	_ = sink.Load()
}

// BenchmarkNestedDoSkewedTree{Sched,OldFanout}: a lopsided 90/10
// divide-and-conquer recursion. The old implementation needs a hand-tuned
// fork budget (unbounded goroutine forking on a skewed tree spawns one
// goroutine per spine node), so past the budget the deep skinny spine goes
// sequential; the scheduler forks all the way down to the leaf grain and
// thieves pick up the spine.
func benchSkewTree(b *testing.B, do func(...func()), forkBudget int, n int) {
	var rec func(lo, hi, depth int) int64
	rec = func(lo, hi, depth int) int64 {
		if hi-lo <= 4096 { // sequential cutoff, matching the library's real grains
			return spinWork(hi - lo)
		}
		mid := lo + (hi-lo)*9/10
		var x, y int64
		if forkBudget > 0 && depth >= forkBudget {
			x = rec(lo, mid, depth+1)
			y = rec(mid, hi, depth+1)
		} else {
			do(
				func() { x = rec(lo, mid, depth+1) },
				func() { y = rec(mid, hi, depth+1) },
			)
		}
		return x + y
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += rec(0, n, 0)
	}
	_ = sink
}

func BenchmarkNestedDoSkewedTreeSched(b *testing.B) {
	benchSkewTree(b, Do, 0, 1<<20) // no fork budget: scheduler needs none
}

func BenchmarkNestedDoSkewedTreeOldFanout(b *testing.B) {
	benchSkewTree(b, oldDo, 7, 1<<20) // the old scheme's hand-tuned budget
}

// BenchmarkHostSpeedup is the control for any parallel speed-up measured
// on the same host: it runs NumCPU independent CPU-bound goroutines (no
// scheduler, no shared data) at GOMAXPROCS 1 and then at NumCPU, and
// reports host_speedup, the first time over the second. A host whose vCPUs
// each get a full core reads close to NumCPU. A lower reading bounds what
// any algorithm can gain there, so a stage that is "slower at -cpu 2 than
// at -cpu 1" is a finding about the stage only where this reads near 2.
func BenchmarkHostSpeedup(b *testing.B) {
	procs := runtime.NumCPU()
	run := func(p int) time.Duration {
		old := runtime.GOMAXPROCS(p)
		defer runtime.GOMAXPROCS(old)
		var wg sync.WaitGroup
		var sink atomic.Int64
		start := time.Now()
		for w := 0; w < procs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sink.Add(spinWork(1 << 24))
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	var t1, tp time.Duration
	for b.Loop() {
		t1 += run(1)
		tp += run(procs)
	}
	b.ReportMetric(float64(t1)/float64(tp), "host_speedup")
}

// BenchmarkDoForkJoinOverhead measures one fork-join of two empty thunks.
func BenchmarkDoForkJoinOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Do(func() {}, func() {})
	}
}

func BenchmarkDoForkJoinOverheadOldFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oldDo(func() {}, func() {})
	}
}

// BenchmarkCurrentWorker prices the worker-identity lookup paid once per
// scheduler entry (a profiler-label pointer read plus, on worker
// goroutines, one sync.Map hit).
func BenchmarkCurrentWorker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if currentWorker() != nil {
			b.Fatal("bench goroutine must not be a worker")
		}
	}
}

// BenchmarkGoroutineID prices the runtime.Stack-based lookup the scheduler
// deliberately avoids (kept for comparison).
func BenchmarkGoroutineID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = goid()
	}
}

func BenchmarkFor(b *testing.B) {
	n := 1 << 20
	dst := make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(n, 0, func(j int) { dst[j] = int64(j) * 3 })
	}
}

func BenchmarkReduceSum(b *testing.B) {
	n := 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumInt(n, 0, func(j int) int { return j & 7 })
	}
}

func BenchmarkScanInts(b *testing.B) {
	n := 1 << 20
	in := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range in {
			in[j] = j & 15
		}
		ScanInts(in)
	}
}

func BenchmarkPackIndex(b *testing.B) {
	n := 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackIndex(n, func(j int) bool { return j%3 == 0 })
	}
}

func BenchmarkSortRandom(b *testing.B) {
	n := 1 << 18
	src := make([]int, n)
	for i := range src {
		src[i] = (i * 2654435761) & 0xffffff
	}
	work := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		Sort(work, func(a, c int) bool { return a < c })
	}
}

func BenchmarkStdlibSortBaseline(b *testing.B) {
	n := 1 << 18
	src := make([]int, n)
	for i := range src {
		src[i] = (i * 2654435761) & 0xffffff
	}
	work := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		sort.Ints(work)
	}
}

func BenchmarkRadixSortPairs(b *testing.B) {
	n := 1 << 18
	srcK := make([]uint64, n)
	srcV := make([]int32, n)
	for i := range srcK {
		srcK[i] = uint64(i*2654435761) & 0xffffffffff
		srcV[i] = int32(i)
	}
	k := make([]uint64, n)
	v := make([]int32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(k, srcK)
		copy(v, srcV)
		SortPairs(k, v)
	}
}

func BenchmarkWriteMinContended(b *testing.B) {
	var slot int64 = 1 << 62
	b.RunParallel(func(pb *testing.PB) {
		i := int64(1 << 61)
		for pb.Next() {
			WriteMin(&slot, i)
			i--
		}
	})
}

func BenchmarkFindFirst(b *testing.B) {
	n := 1 << 20
	target := n / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindFirst(n, func(j int) bool { return j >= target })
	}
}
