package parlay

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the current goroutine's id, parsed from the runtime.Stack
// header ("goroutine 123 [running]:"). Too slow for the scheduler hot path
// (see currentWorker), but fine for asserting in tests which goroutine ran
// a loop body.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for i := len("goroutine "); i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// withProcs runs f with GOMAXPROCS temporarily set to p.
func withProcs(t *testing.T, p int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

// --- deque ---------------------------------------------------------------

func TestDequeLIFOOwnerFIFOThief(t *testing.T) {
	var d deque
	d.init()
	var jn join
	jn.pending.Store(3)
	mk := func(id int, sink *[]int) *task {
		return &task{fn: func() { *sink = append(*sink, id) }, j: &jn}
	}
	var got []int
	d.push(mk(1, &got))
	d.push(mk(2, &got))
	d.push(mk(3, &got))
	// Thief sees the oldest task first.
	st, _ := d.steal()
	st.fn()
	// Owner sees the newest remaining task first.
	d.pop().fn()
	d.pop().fn()
	if d.pop() != nil {
		t.Fatal("deque should be empty")
	}
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
}

func TestDequeGrowth(t *testing.T) {
	var d deque
	d.init()
	var jn join
	n := 4 * dequeInitialSize
	jn.pending.Store(int32(n))
	var sum int64
	for i := 0; i < n; i++ {
		i := i
		d.push(&task{fn: func() { sum += int64(i) }, j: &jn})
	}
	for {
		tk := d.pop()
		if tk == nil {
			break
		}
		tk.fn()
	}
	if want := int64(n) * int64(n-1) / 2; sum != want {
		t.Fatalf("sum after growth = %d, want %d", sum, want)
	}
}

// TestDequeConcurrentStress checks the owner/thief protocol: every pushed
// task is executed exactly once, under concurrent pops and steals.
func TestDequeConcurrentStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 200000
	const thieves = 3
	var d deque
	d.init()
	var jn join
	jn.pending.Store(int32(n))
	execCount := make([]atomic.Int32, n)
	runTask := func(tk *task) {
		tk.fn()
		tk.j.finish()
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if tk := d.stealFrom(); tk != nil {
					runTask(tk)
				}
			}
		}()
	}
	// Owner: push all tasks, popping a few along the way.
	for i := 0; i < n; i++ {
		i := i
		d.push(&task{fn: func() { execCount[i].Add(1) }, j: &jn})
		if i%7 == 0 {
			if tk := d.pop(); tk != nil {
				runTask(tk)
			}
		}
	}
	for {
		tk := d.pop()
		if tk == nil && jn.done() {
			break
		}
		if tk != nil {
			runTask(tk)
		}
	}
	jn.wait()
	stop.Store(true)
	wg.Wait()
	for i := range execCount {
		if c := execCount[i].Load(); c != 1 {
			t.Fatalf("task %d executed %d times", i, c)
		}
	}
}

// --- nested fork-join ----------------------------------------------------

// treeSum sums [lo, hi) by nested binary fork-join through the public API.
func treeSum(lo, hi int) int64 {
	if hi-lo <= 64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		return s
	}
	mid := (lo + hi) / 2
	var a, b int64
	Do(
		func() { a = treeSum(lo, mid) },
		func() { b = treeSum(mid, hi) },
	)
	return a + b
}

func TestNestedForkJoinCorrect(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		withProcs(t, p, func() {
			n := 1 << 16
			got := treeSum(0, n)
			want := int64(n) * int64(n-1) / 2
			if got != want {
				t.Fatalf("p=%d: treeSum = %d, want %d", p, got, want)
			}
		})
	}
}

// TestNestedForkJoinSkewed builds a deliberately lopsided recursion (97/3
// splits), the shape that defeated the old depth-limited fan-out, and
// checks the scheduler still computes the right answer.
func TestNestedForkJoinSkewed(t *testing.T) {
	withProcs(t, 4, func() {
		var skew func(lo, hi int) int64
		skew = func(lo, hi int) int64 {
			if hi-lo <= 64 {
				var s int64
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				return s
			}
			mid := lo + (hi-lo)*97/100
			if mid <= lo {
				mid = lo + 1
			}
			var a, b int64
			Do(
				func() { a = skew(lo, mid) },
				func() { b = skew(mid, hi) },
			)
			return a + b
		}
		n := 1 << 15
		if got, want := skew(0, n), int64(n)*int64(n-1)/2; got != want {
			t.Fatalf("skewed treeSum = %d, want %d", got, want)
		}
	})
}

func TestDoManyThunks(t *testing.T) {
	withProcs(t, 4, func() {
		var cnt atomic.Int32
		var thunks []func()
		for i := 0; i < 100; i++ {
			thunks = append(thunks, func() { cnt.Add(1) })
		}
		Do(thunks...)
		if cnt.Load() != 100 {
			t.Fatalf("ran %d of 100 thunks", cnt.Load())
		}
	})
}

// --- steal path ----------------------------------------------------------

// onWorker runs f on a worker of s through the one fork routine: the
// calling goroutine, outside the pool, blocks in the fork's inline piece
// until a worker has taken f from the inject queue, so f cannot run on the
// caller.
func onWorker(s *sched, f func()) {
	started := make(chan struct{})
	s.fork(nil, []task{
		{fn: func() { <-started }},
		{fn: func() { close(started); f() }},
	})
}

// TestStealPathDeterministic forces a steal: a worker forks a task and then
// blocks until some *other* worker has stolen and run it. Passing proves
// the fork/signal/wake/steal chain works end to end. The workers fork
// whatever GOMAXPROCS reads, so the test needs no resize.
func TestStealPathDeterministic(t *testing.T) {
	for _, p := range []int{2, 4} {
		s := newSched(p)
		ok := make(chan bool, 1)
		onWorker(s, func() {
			stolen := make(chan struct{})
			Do(
				func() {
					// Hold the worker hostage: only a thief — another
					// worker or the external helper — can run the forked
					// sibling that releases us.
					select {
					case <-stolen:
						ok <- true
					case <-time.After(20 * time.Second):
						ok <- false
					}
				},
				func() { close(stolen) },
			)
		})
		s.shutdown()
		if !<-ok {
			t.Fatalf("p=%d: forked task was never stolen", p)
		}
		if s.steals.Load() == 0 {
			t.Fatalf("p=%d: steal counter is zero after a forced steal", p)
		}
	}
}

// TestStealsUnderSkewedLoop checks that a grain-1 loop with wildly uneven
// iteration costs actually migrates work between workers.
func TestStealsUnderSkewedLoop(t *testing.T) {
	s := newSched(4)
	defer s.shutdown()
	var sum atomic.Int64
	n := 256
	onWorker(s, func() {
		For(n, 1, func(i int) {
			// First iterations are ~100x more expensive.
			spin := 100
			if i < n/8 {
				spin = 10000
			}
			acc := 0
			for j := 0; j < spin; j++ {
				acc += j
			}
			sum.Add(int64(acc % 7))
			sum.Add(1)
		})
	})
	if got := sum.Load(); got < int64(n) {
		t.Fatalf("loop dropped iterations: %d", got)
	}
	t.Logf("steals=%d tasksRun=%d", s.steals.Load(), s.tasksRun.Load())
	if s.tasksRun.Load() <= 1 {
		t.Fatal("scheduler forked no blocks for a 256-iteration grain-1 loop")
	}
}

func TestPrivateSchedSingleWorker(t *testing.T) {
	s := newSched(1)
	defer s.shutdown()
	var cnt atomic.Int32
	inc := func() { cnt.Add(1) }
	s.fork(nil, []task{{fn: inc}, {fn: inc}, {fn: inc}})
	if cnt.Load() != 3 {
		t.Fatalf("single-worker sched ran %d of 3 thunks", cnt.Load())
	}
	onWorker(s, func() { Do(inc, inc, inc) })
	if cnt.Load() != 6 {
		t.Fatalf("single-worker sched ran %d of 3 nested thunks", cnt.Load()-3)
	}
}

// TestPrivateSchedLoopsStayOnIt: loops forked by a task of a private
// scheduler run on that scheduler, not on the default one, whatever
// GOMAXPROCS reads.
func TestPrivateSchedLoopsStayOnIt(t *testing.T) {
	For(1<<16, 0, func(int) {}) // start the default scheduler, if it forks
	s := newSched(2)
	defer s.shutdown()
	_, defTasks0 := schedCounters()
	n := 1 << 16
	in := make([]int, n)
	var covered atomic.Int64
	var sum, total int
	onWorker(s, func() {
		ForBlocked(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				in[i] = i & 7
			}
			covered.Add(int64(hi - lo))
		})
		sum = SumInt(n, 0, func(i int) int { return in[i] })
		total = ScanInts(in)
	})
	if covered.Load() != int64(n) {
		t.Fatalf("ForBlocked covered %d of %d", covered.Load(), n)
	}
	if want := n / 8 * 28; sum != want || total != want {
		t.Fatalf("SumInt = %d, ScanInts total = %d, want %d", sum, total, want)
	}
	// The root task, then every forked block but each fork's inline one:
	// ForBlocked, Reduce and ScanInts' two sweeps.
	nb, _ := blocking(n, 0)
	if got, want := s.tasksRun.Load(), int64(1+4*(nb-1)); got < want {
		t.Fatalf("private scheduler ran %d tasks, want >= %d (%d blocks per loop)", got, want, nb)
	}
	if _, defTasks1 := schedCounters(); defTasks1 != defTasks0 {
		t.Fatalf("default scheduler ran %d of the private scheduler's blocks", defTasks1-defTasks0)
	}
}

// TestForkAllocs: a fork allocates a fixed number of objects whatever its
// size, and a Do that runs inline allocates nothing. testing.AllocsPerRun
// runs at GOMAXPROCS 1, which is the sequential form for a goroutine
// outside the pool and no change for a worker.
func TestForkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var x, y int
	a, b := func() { x++ }, func() { y++ }
	if got := testing.AllocsPerRun(100, func() { Do(a, b) }); got != 0 {
		t.Errorf("Do(a, b) at GOMAXPROCS 1 allocates %v objects, want 0", got)
	}
	s := newSched(2)
	defer s.shutdown()
	var sink atomic.Int64
	body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	for _, nblocks := range []int{2, 16, 64} {
		var got float64
		onWorker(s, func() {
			got = testing.AllocsPerRun(100, func() { ForBlocked(nblocks*1024, 1024, body) })
		})
		t.Logf("%d blocks: %v allocs", nblocks, got)
		if got > 8 {
			t.Errorf("a %d-block ForBlocked on a 2-worker scheduler allocates %v objects, want <= 8", nblocks, got)
		}
	}
}

// --- sequential degradation ----------------------------------------------

// schedCounters snapshots the default scheduler's activity (zero if it has
// never started).
func schedCounters() (steals, tasks int64) {
	if s := defaultSchedPtr.Load(); s != nil {
		return s.steals.Load(), s.tasksRun.Load()
	}
	return 0, 0
}

// TestGOMAXPROCS1Bypass: with one processor, every primitive must take its
// sequential path — the scheduler sees no tasks at all.
func TestGOMAXPROCS1Bypass(t *testing.T) {
	withProcs(t, 1, func() {
		steals0, tasks0 := schedCounters()
		n := 100000
		if got := SumInt(n, 0, func(i int) int { return i }); got != n*(n-1)/2 {
			t.Fatalf("SumInt = %d", got)
		}
		a := make([]int, 50000)
		for i := range a {
			a[i] = (i * 2654435761) & 0xffff
		}
		Sort(a, func(x, y int) bool { return x < y })
		if !sort.IntsAreSorted(a) {
			t.Fatal("Sort failed under GOMAXPROCS=1")
		}
		if got := treeSum(0, 1<<14); got != int64(1<<14)*int64(1<<14-1)/2 {
			t.Fatalf("treeSum = %d", got)
		}
		ScanInts(a)
		steals1, tasks1 := schedCounters()
		if steals0 != steals1 || tasks0 != tasks1 {
			t.Fatalf("scheduler was engaged under GOMAXPROCS=1: steals %d->%d tasks %d->%d",
				steals0, steals1, tasks0, tasks1)
		}
	})
}

// TestSubmitSeqMode: with GOMAXPROCS=1 a submitted batch of pieces (a
// multi-thunk Do, a ForBlocked) runs on the calling goroutine, never
// touching the scheduler.
func TestSubmitSeqMode(t *testing.T) {
	withProcs(t, 1, func() {
		steals0, tasks0 := schedCounters()
		caller := goid()
		n := 100000
		ForBlocked(n, 1, func(lo, hi int) {
			if lo != 0 || hi != n || goid() != caller {
				t.Errorf("ForBlocked ran [%d, %d) off the caller, want one inline block", lo, hi)
			}
		})
		ran := 0
		Do(func() { ran++ }, func() { ran++ }, func() { ran++ })
		if ran != 3 {
			t.Fatalf("Do ran %d of 3 thunks", ran)
		}
		steals1, tasks1 := schedCounters()
		if steals0 != steals1 || tasks0 != tasks1 {
			t.Fatalf("scheduler was engaged under GOMAXPROCS=1: steals %d->%d tasks %d->%d",
				steals0, steals1, tasks0, tasks1)
		}
	})
}

// TestBelowGrainRunsInline: an input at or below the grain must run on the
// calling goroutine, without creating tasks.
func TestBelowGrainRunsInline(t *testing.T) {
	withProcs(t, 4, func() {
		caller := goid()
		var bodyGoid uint64
		ForBlocked(100, 200, func(lo, hi int) { bodyGoid = goid() })
		if bodyGoid != caller {
			t.Fatalf("below-grain loop body ran on goroutine %d, caller is %d", bodyGoid, caller)
		}
		_, tasks0 := schedCounters()
		For(1000, 2048, func(i int) {})
		Reduce(1000, 2048, 0, func(i int) int { return i }, func(a, b int) int { return a + b })
		_, tasks1 := schedCounters()
		if tasks0 != tasks1 {
			t.Fatalf("below-grain primitives created %d tasks", tasks1-tasks0)
		}
	})
}

// --- primitives under varying worker counts ------------------------------

func TestPrimitivesAcrossProcs(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	src := make([]int, 120001)
	for i := range src {
		src[i] = r.Intn(1 << 20)
	}
	for _, p := range []int{1, 2, 4, runtime.NumCPU() + 2} {
		withProcs(t, p, func() {
			n := len(src)
			if got, want := SumInt(n, 0, func(i int) int { return src[i] % 16 }), func() int {
				s := 0
				for _, v := range src {
					s += v % 16
				}
				return s
			}(); got != want {
				t.Fatalf("p=%d: SumInt = %d, want %d", p, got, want)
			}
			a := append([]int(nil), src...)
			Sort(a, func(x, y int) bool { return x < y })
			if !sort.IntsAreSorted(a) {
				t.Fatalf("p=%d: Sort failed", p)
			}
			idx := PackIndex(n, func(i int) bool { return src[i]%3 == 0 })
			want := 0
			for _, v := range src {
				if v%3 == 0 {
					want++
				}
			}
			if len(idx) != want {
				t.Fatalf("p=%d: PackIndex len = %d, want %d", p, len(idx), want)
			}
			hit := make([]atomic.Int32, 30000)
			For(len(hit), 1, func(i int) { hit[i].Add(1) })
			for i := range hit {
				if hit[i].Load() != 1 {
					t.Fatalf("p=%d: grain-1 For visited index %d %d times", p, i, hit[i].Load())
				}
			}
		})
	}
}

// TestExternalCallersConcurrent hammers the scheduler from many non-worker
// goroutines at once (the inject-queue path).
func TestExternalCallersConcurrent(t *testing.T) {
	withProcs(t, 4, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				n := 1 << 13
				if got, want := treeSum(0, n), int64(n)*int64(n-1)/2; got != want {
					t.Errorf("goroutine %d: treeSum = %d, want %d", g, got, want)
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestSubmitConcurrentBatches: many goroutines outside the pool submitting
// and waiting on independent batches at once, as grain-1 loops of 8 pieces
// (the engine's shard fan-out shape).
func TestSubmitConcurrentBatches(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				var ran atomic.Int64
				For(8, 1, func(int) { ran.Add(1) })
				if ran.Load() != 8 {
					t.Errorf("goroutine %d: batch ran %d of 8 pieces", g, ran.Load())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDefaultSchedGrowsWithGOMAXPROCS: the in-process thread sweeps of
// cmd/pargeo-bench raise GOMAXPROCS between measurements; the default
// scheduler must grow its pool to match instead of staying pinned at the
// size of its first use.
func TestDefaultSchedGrowsWithGOMAXPROCS(t *testing.T) {
	withProcs(t, 2, func() {
		For(100000, 1024, func(i int) {}) // engage the default scheduler
		s := defaultSchedPtr.Load()
		if s == nil {
			t.Fatal("default scheduler did not start")
		}
		before := len(s.workerList())
		if before < 2 {
			t.Fatalf("expected >= 2 workers, got %d", before)
		}
		runtime.GOMAXPROCS(6)
		For(100000, 1024, func(i int) {})
		if got := len(s.workerList()); got < 6 {
			t.Fatalf("pool did not grow with GOMAXPROCS: %d workers, want >= 6", got)
		}
		// Correctness after growth, including on the new workers.
		if got, want := treeSum(0, 1<<15), int64(1<<15)*int64(1<<15-1)/2; got != want {
			t.Fatalf("treeSum after growth = %d, want %d", got, want)
		}
	})
}

// TestWorkersParkWhenIdle: shortly after a burst of work, all workers of a
// private scheduler must be parked (no busy-spinning).
func TestWorkersParkWhenIdle(t *testing.T) {
	s := newSched(3)
	defer s.shutdown()
	var sink atomic.Int64
	onWorker(s, func() { For(64, 1, func(i int) { sink.Add(int64(i)) }) })
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if int(s.nIdle.Load()) == len(s.workerList()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("workers never parked: %d of %d idle", s.nIdle.Load(), len(s.workerList()))
}

// TestShutdownUnregistersWorkers: after shutdown, the goid registry must not
// leak worker entries.
func TestShutdownUnregistersWorkers(t *testing.T) {
	s := newSched(2)
	s.shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		leaked := false
		workerMap.Range(func(_, v any) bool {
			if v.(*worker).s == s {
				leaked = true
				return false
			}
			return true
		})
		if !leaked {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("shutdown left workers registered")
}
