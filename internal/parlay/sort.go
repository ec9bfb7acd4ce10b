package parlay

import (
	"math"
	"sort"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }

// sortSeqThreshold is the subproblem size below which parallel merge sort
// falls back to the standard library's introsort. Below this size the
// fork-join cost dominates any parallel gain.
const sortSeqThreshold = 8192

// Sort sorts s in parallel using a (non-stable) parallel merge sort:
// recursively sort halves in parallel, then merge the halves in parallel by
// splitting the merge at the median of the larger half (the classic
// CLRS/Cilk parallel merge). Work Θ(n log n), span Θ(log³ n). The recursion
// forks through the work-stealing scheduler, so it needs no depth limit:
// the only cutoff is the sequential grain.
func Sort[T any](s []T, less func(a, b T) bool) {
	n := len(s)
	// As in entry: a worker forks whatever GOMAXPROCS reads.
	if n <= sortSeqThreshold || seqMode() && currentWorker() == nil {
		sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
		return
	}
	buf := make([]T, n)
	mergeSort(s, buf, less, false)
}

// mergeSort sorts src; if toBuf, the sorted output lands in buf, otherwise
// in src. Alternating the destination avoids a copy per level.
func mergeSort[T any](src, buf []T, less func(a, b T) bool, toBuf bool) {
	n := len(src)
	if n <= sortSeqThreshold {
		sort.Slice(src, func(i, j int) bool { return less(src[i], src[j]) })
		if toBuf {
			copy(buf, src)
		}
		return
	}
	mid := n / 2
	Do(
		func() { mergeSort(src[:mid], buf[:mid], less, !toBuf) },
		func() { mergeSort(src[mid:], buf[mid:], less, !toBuf) },
	)
	// The sorted halves now live in the opposite array of the destination.
	var from, to []T
	if toBuf {
		from, to = src, buf
	} else {
		from, to = buf, src
	}
	parMerge(from[:mid], from[mid:], to, less)
}

// parMerge merges sorted a and b into out (len(out) == len(a)+len(b)),
// forking while the work is large.
func parMerge[T any](a, b, out []T, less func(a, b T) bool) {
	if len(a)+len(b) <= sortSeqThreshold {
		seqMerge(a, b, out, less)
		return
	}
	if len(a) < len(b) {
		a, b = b, a // ensure a is the larger half
	}
	ma := len(a) / 2
	// Position of a[ma] in b by binary search.
	mb := sort.Search(len(b), func(i int) bool { return !less(b[i], a[ma]) })
	Do(
		func() { parMerge(a[:ma], b[:mb], out[:ma+mb], less) },
		func() { parMerge(a[ma:], b[mb:], out[ma+mb:], less) },
	)
}

func seqMerge[T any](a, b, out []T, less func(a, b T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// SortPairs sorts keys (uint64) in parallel with a least-significant-digit
// radix sort, carrying vals along. It sorts 8 bits per pass over however
// many passes the maximum key requires; each pass is a parallel count /
// scan / scatter, with the per-block count and scatter phases running as
// scheduler tasks. This is the engine behind Morton sort.
func SortPairs(keys []uint64, vals []int32) {
	n := len(keys)
	if n != len(vals) {
		panic("parlay: SortPairs length mismatch")
	}
	if n <= 1 {
		return
	}
	maxKey := Reduce(n, 0, 0,
		func(i int) uint64 { return keys[i] },
		func(a, b uint64) uint64 {
			if a > b {
				return a
			}
			return b
		})
	passes := 0
	for mk := maxKey; mk > 0 || passes == 0; mk >>= 8 {
		passes++
	}
	tmpK := make([]uint64, n)
	tmpV := make([]int32, n)
	srcK, srcV, dstK, dstV := keys, vals, tmpK, tmpV

	nblocks, blockSize := blocking(n, 0)
	// counts[b][d]: occurrences of digit d in block b.
	counts := make([][256]int, nblocks)

	for pass := 0; pass < passes; pass++ {
		shift := uint(8 * pass)
		ForBlocked(nblocks, 1, func(blo, bhi int) {
			for b := blo; b < bhi; b++ {
				var c [256]int
				lo, hi := b*blockSize, min((b+1)*blockSize, n)
				for i := lo; i < hi; i++ {
					c[(srcK[i]>>shift)&0xff]++
				}
				counts[b] = c
			}
		})
		// Column-major exclusive scan: digit-major so that equal digits
		// keep block order (stability).
		total := 0
		for d := 0; d < 256; d++ {
			for b := 0; b < nblocks; b++ {
				c := counts[b][d]
				counts[b][d] = total
				total += c
			}
		}
		ForBlocked(nblocks, 1, func(blo, bhi int) {
			for b := blo; b < bhi; b++ {
				offsets := counts[b]
				lo, hi := b*blockSize, min((b+1)*blockSize, n)
				for i := lo; i < hi; i++ {
					d := (srcK[i] >> shift) & 0xff
					pos := offsets[d]
					offsets[d]++
					dstK[pos] = srcK[i]
					dstV[pos] = srcV[i]
				}
			}
		})
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if passes%2 == 1 {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}
