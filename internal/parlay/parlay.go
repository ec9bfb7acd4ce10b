package parlay

import (
	"runtime"
	"sync/atomic"

	"pargeo/internal/rng"
)

// DefaultGrain is the default minimum number of loop iterations assigned to
// one task. Chosen so that per-task scheduling overhead (~100ns for a deque
// push/pop pair) is well under 1% of task runtime for cheap loop bodies.
const DefaultGrain = 2048

// NumWorkers returns the number of parallel workers used by this package:
// the current GOMAXPROCS setting.
func NumWorkers() int { return runtime.GOMAXPROCS(0) }

// blocking computes the task decomposition for an n-iteration loop: the
// number of blocks and the (balanced) block size. A non-positive grain asks
// for the default, which additionally coarsens so that a single loop creates
// at most ~16 blocks per worker — enough slack for stealing to rebalance a
// skewed loop, without drowning a uniform one in task overhead. An explicit
// grain gives callers with expensive iterations (per-point hull BFS,
// per-query k-NN) individually stealable fine blocks, but the total is
// still capped at 64 blocks per worker: past that, extra tasks add
// scheduling overhead without adding balance (grain is a floor — "at least
// grain iterations per task" — not an exact block size).
func blocking(n, grain int) (nblocks, blockSize int) {
	if grain <= 0 {
		grain = DefaultGrain
		if g := (n + 16*NumWorkers() - 1) / (16 * NumWorkers()); g > grain {
			grain = g
		}
	}
	nblocks = (n + grain - 1) / grain
	if maxBlocks := 64 * NumWorkers(); nblocks > maxBlocks {
		nblocks = maxBlocks
	}
	blockSize = (n + nblocks - 1) / nblocks
	// Recompute so the last block is never empty (blockSize rounding).
	nblocks = (n + blockSize - 1) / blockSize
	return
}

// For runs body(i) for each i in [0, n) in parallel, with at least grain
// iterations per task. If grain <= 0, DefaultGrain is used. body must be
// safe to call concurrently for distinct i.
func For(n, grain int, body func(i int)) {
	ForBlocked(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForBlocked runs body(lo, hi) over a partition of [0, n) into contiguous
// blocks of at least grain iterations, in parallel across blocks. It is the
// workhorse loop: block form lets bodies keep per-block locals (partial
// sums, local buffers) without false sharing. Blocks are scheduler tasks,
// so an idle worker steals blocks from a loop that turned out to be skewed.
func ForBlocked(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	nblocks, blockSize := blocking(n, grain)
	if nblocks <= 1 || seqMode() {
		body(0, n)
		return
	}
	defaultSched().parallelFor(nblocks, func(b int) {
		lo := b * blockSize
		hi := min(lo+blockSize, n)
		if lo < hi {
			body(lo, hi)
		}
	})
}

// Do runs the given thunks as parallel fork-join tasks and waits for all of
// them. It is the binary/n-ary join point used by divide-and-conquer
// algorithms, and it nests: a thunk may itself call Do (or any other
// primitive) and the scheduler load-balances the whole recursion tree, so
// callers need no depth limits — only a sequential cutoff below which
// forking is not worth its (small) cost.
func Do(thunks ...func()) {
	if len(thunks) == 0 {
		return
	}
	if len(thunks) == 1 || seqMode() {
		for _, t := range thunks {
			t()
		}
		return
	}
	if w := currentWorker(); w != nil {
		w.do(thunks)
		return
	}
	defaultSched().externalDo(thunks)
}

// Reduce computes merge over f(i) for i in [0, n) in parallel.
// id is the identity of merge. merge must be associative.
func Reduce[T any](n, grain int, id T, f func(i int) T, merge func(a, b T) T) T {
	if n <= 0 {
		return id
	}
	nblocks, blockSize := blocking(n, grain)
	if nblocks <= 1 || seqMode() {
		acc := id
		for i := 0; i < n; i++ {
			acc = merge(acc, f(i))
		}
		return acc
	}
	partial := make([]T, nblocks)
	defaultSched().parallelFor(nblocks, func(b int) {
		acc := id
		for i := b * blockSize; i < min((b+1)*blockSize, n); i++ {
			acc = merge(acc, f(i))
		}
		partial[b] = acc
	})
	acc := id
	for _, v := range partial {
		acc = merge(acc, v)
	}
	return acc
}

// SumInt returns the parallel sum of f(i) over [0, n).
func SumInt(n, grain int, f func(i int) int) int {
	return Reduce(n, grain, 0, f, func(a, b int) int { return a + b })
}

// Count returns the number of i in [0, n) for which pred(i) holds.
func Count(n, grain int, pred func(i int) bool) int {
	return SumInt(n, grain, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// MaxIndexFloat returns the index i in [0, n) maximizing key(i), or -1 when
// n == 0. Ties resolve to the smallest index, so the result is deterministic
// regardless of worker count (the paper's "parallel maximum-finding
// routine", used by quickhull and the pivoting SEB heuristic).
func MaxIndexFloat(n, grain int, key func(i int) float64) int {
	type im struct {
		idx int
		val float64
	}
	r := Reduce(n, grain, im{-1, 0},
		func(i int) im { return im{i, key(i)} },
		func(a, b im) im {
			if a.idx < 0 {
				return b
			}
			if b.idx < 0 {
				return a
			}
			if b.val > a.val || (b.val == a.val && b.idx < a.idx) {
				return b
			}
			return a
		})
	return r.idx
}

// MinIndexFloat returns the index minimizing key(i), or -1 when n == 0.
func MinIndexFloat(n, grain int, key func(i int) float64) int {
	return MaxIndexFloat(n, grain, func(i int) float64 { return -key(i) })
}

// ScanInts replaces in with its exclusive prefix sum and returns the total.
// Two-pass blocked scan: per-block sums, sequential scan of the (few) block
// sums, then per-block local scans — O(n) work, two parallel sweeps.
func ScanInts(in []int) int {
	n := len(in)
	if n == 0 {
		return 0
	}
	nblocks, blockSize := blocking(n, 0)
	if nblocks <= 1 || seqMode() {
		total := 0
		for i := 0; i < n; i++ {
			v := in[i]
			in[i] = total
			total += v
		}
		return total
	}
	sums := make([]int, nblocks)
	s := defaultSched()
	s.parallelFor(nblocks, func(b int) {
		acc := 0
		for i := b * blockSize; i < min((b+1)*blockSize, n); i++ {
			acc += in[i]
		}
		sums[b] = acc
	})
	total := 0
	for b := 0; b < nblocks; b++ {
		v := sums[b]
		sums[b] = total
		total += v
	}
	s.parallelFor(nblocks, func(b int) {
		acc := sums[b]
		for i := b * blockSize; i < min((b+1)*blockSize, n); i++ {
			v := in[i]
			in[i] = acc
			acc += v
		}
	})
	return total
}

// PackIndex returns, in order, all indices i in [0, n) for which keep(i) is
// true. keep is called exactly once per index, so a predicate that does
// real work (a plane test, a map probe) is paid once. This is the paper's
// "ParallelPack" (Fig. 5, line 17): flags -> scan -> scatter.
func PackIndex(n int, keep func(i int) bool) []int32 {
	return pack(n, keep, func(i int) int32 { return int32(i) })
}

// Pack returns the elements of in whose keep flag is true, preserving order.
// keep is called exactly once per index.
func Pack[T any](in []T, keep func(i int) bool) []T {
	return pack(len(in), keep, func(i int) T { return in[i] })
}

// pack is Pack and PackIndex: each block stores keep's answers as byte
// flags and counts them, a sequential scan of the (few) block counts gives
// every block its output offset, and the scatter reads the stored flags.
// Both passes are ForBlocked loops over the blocking ForBlocked itself
// uses, so a block is lo/blockSize (one block spans all of [0, n) when the
// loop runs inline).
func pack[T any](n int, keep func(i int) bool, elem func(i int) T) []T {
	if n == 0 {
		return nil
	}
	nblocks, blockSize := blocking(n, 0)
	flags := make([]bool, n)
	offsets := make([]int, nblocks)
	ForBlocked(n, 0, func(lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if keep(i) {
				flags[i] = true
				c++
			}
		}
		offsets[lo/blockSize] = c
	})
	total := 0
	for b, c := range offsets {
		offsets[b] = total
		total += c
	}
	out := make([]T, total)
	ForBlocked(n, 0, func(lo, hi int) {
		j := offsets[lo/blockSize]
		for i := lo; i < hi; i++ {
			if flags[i] {
				out[j] = elem(i)
				j++
			}
		}
	})
	return out
}

// Filter returns the elements of in satisfying pred, preserving order.
func Filter[T any](in []T, pred func(v T) bool) []T {
	return Pack(in, func(i int) bool { return pred(in[i]) })
}

// WriteMin atomically sets *addr = min(*addr, val) and reports whether val
// became the stored minimum. This is the priority write from Shun et al.
// used for the paper's facet reservations: concurrent writers race, the
// smallest value (highest priority) wins deterministically.
func WriteMin(addr *int64, val int64) bool {
	for {
		old := atomic.LoadInt64(addr)
		if old <= val {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, old, val) {
			return true
		}
	}
}

// WriteMax atomically sets *addr = max(*addr, val) and reports whether val
// became the stored maximum.
func WriteMax(addr *int64, val int64) bool {
	for {
		old := atomic.LoadInt64(addr)
		if old >= val {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, old, val) {
			return true
		}
	}
}

// WriteMinFloat64 atomically lowers *addr (interpreted through bits as a
// non-negative float64) to val if val is smaller. Only valid for
// non-negative values, whose IEEE-754 bit patterns order like the floats.
func WriteMinFloat64(addr *uint64, val float64) bool {
	bits := floatBits(val)
	for {
		old := atomic.LoadUint64(addr)
		if old <= bits {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, bits) {
			return true
		}
	}
}

// Shuffle randomly permutes s in place, deterministically from seed. It is
// a sequential Fisher–Yates pass: one random access per element, on one
// worker, so it costs O(n) span. A caller that needs only a random sample
// should draw the sample instead (seb.Sampling does).
func Shuffle[T any](s []T, seed uint64) {
	r := rng.NewXoshiro256(seed)
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// RandomPermutation returns a random permutation of [0, n), deterministic
// from seed. Only the identity fill is parallel; the shuffle is Shuffle's
// sequential pass, so its span is O(n).
func RandomPermutation(n int, seed uint64) []int32 {
	p := make([]int32, n)
	For(n, 0, func(i int) { p[i] = int32(i) })
	Shuffle(p, seed)
	return p
}
