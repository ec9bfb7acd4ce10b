package kdtree

import (
	"math"
	"slices"
)

// F32CoordErr bounds the absolute error a float32-rounded coordinate can
// carry, as a fraction of the data's largest magnitude: rounding to f32 is
// within half an ulp, i.e. |x| · 2⁻²⁴ ≤ maxAbs · 2⁻²⁴ per value, and a
// filter-side coordinate difference involves two rounded values
// (maxAbs · 2⁻²³). 2⁻²¹ gives that bound a 4× safety margin.
const F32CoordErr = 0x1p-21

// KNNBuffer keeps the k nearest neighbors seen so far: a max-heap of k
// (distance, id) slots whose root is the k-th nearest distance. While
// fewer than k candidates exist, Insert appends and Bound() is +Inf; the
// k-th arrival heapifies the slots once. From then on a candidate closer
// than the root replaces it and sifts down, so Bound() is the exact k-th
// distance after every insert and each subtree is pruned against the
// candidates already found. Result and ResultInto heapsort the slots.
//
// Where this departs from the paper (Appendix C.1.3): the paper's k-NN
// buffer holds 2k candidates and, when all 2k are full, selects the k
// nearest and drops the rest — amortized O(1) per insert, but between two
// selections the pruning bound is the k-th distance of the last
// selection, looser than the candidates already found allow. The heap
// pays O(log k) per accepted insert for a bound that is always exact, as
// in Friedman, Bentley & Finkel (ACM TOMS 1977). BenchmarkKNNQuery over
// 100 000 uniform points, ns per query at -cpu 1 on a 2-vCPU KVM guest
// (Xeon), medians of 8 alternating runs, which swing ±15 %:
//
//	dimension, k           2, 5   3, 1   3, 16   3, 64   3, 256
//	2k buffer, selection   1 608  1 166  5 333   12 659  35 433
//	k-slot heap            1 285  1 091  4 296   11 662  41 791
//
// The heap loses only at k = 256, where O(log k) per accepted candidate
// outweighs the tighter bound; no workload asks for k > 8.
//
// The buffer also carries the per-query state of the float32 column filter
// (PrepareF32): the query's f32 image, the filter's distance error bound,
// and the scratch column the kernel writes squared distances into — so a
// pooled buffer makes the whole filtered scan path allocation-free.
type KNNBuffer struct {
	k     int
	ids   []int32   // k slots; a max-heap by dists once n == k
	dists []float64 // squared distances, parallel to ids
	n     int       // live candidates in the buffer
	bound float64   // dists[0] once n == k, +Inf before

	// float32 filter state, valid for the query PrepareF32 saw last.
	f32     bool            // filter armed for this query
	q32     [MaxDim]float32 // f32 image of the query point
	errD    float64         // bound on |f32 distance − true distance|
	thr     float64         // cached refinement threshold (squared, f32 scale)
	thrFor  float64         // Bound() value thr was computed for
	scratch []float32       // kernel output column, grown on demand
	sel     []float32       // EagerThreshold's k+1-slot max-heap
}

// knnScratchInit pre-sizes the kernel scratch column to cover default-sized
// leaves (kdtree LeafSize 32, BDL levels 64) without ever growing — the
// zero-alloc guarantee of the scan path. Larger user-set leaves grow it
// once per buffer.
const knnScratchInit = 64

// NewKNNBuffer returns a buffer for k neighbors. It panics when k < 1.
func NewKNNBuffer(k int) *KNNBuffer {
	CheckK(k)
	return &KNNBuffer{
		k:       k,
		ids:     make([]int32, k),
		dists:   make([]float64, k),
		bound:   inf,
		scratch: make([]float32, knnScratchInit),
		sel:     make([]float32, k+1),
	}
}

// CheckK panics unless k >= 1: the contract of every k-NN entry point. A
// batch entry point checks before it forks, so the panic reaches its caller
// (a worker goroutine's would end the process) and does so even when no
// query sizes a buffer.
func CheckK(k int) {
	if k < 1 {
		panic("kdtree: KNN requires k >= 1")
	}
}

// Reset clears the buffer for reuse on a new query.
func (b *KNNBuffer) Reset() {
	b.n = 0
	b.bound = inf
}

// K returns the configured neighbor count.
func (b *KNNBuffer) K() int { return b.k }

// Full reports whether at least k candidates have been collected.
func (b *KNNBuffer) Full() bool { return b.n >= b.k }

// Bound returns the current upper bound on the k-th nearest squared
// distance: +inf until k candidates exist, then the exact k-th. Used for
// subtree pruning.
func (b *KNNBuffer) Bound() float64 { return b.bound }

// load primes the buffer for a new query with its k slots collected
// elsewhere: sorted by increasing distance and padded with (-1, +Inf).
// Reversed, they are a max-heap with the k-th at the root. Padding acts
// as candidates at +Inf: any real candidate displaces it, and what is left
// of it comes back from ResultInto as padding.
func (b *KNNBuffer) load(ids []int32, dists []float64) {
	for i, j := 0, b.k-1; j >= 0; i, j = i+1, j-1 {
		b.ids[i], b.dists[i] = ids[j], dists[j]
	}
	b.n = b.k
	b.bound = b.dists[0]
}

// Insert offers candidate id at squared distance d.
func (b *KNNBuffer) Insert(id int32, d float64) {
	if d >= b.bound {
		return
	}
	if b.n < b.k {
		b.ids[b.n], b.dists[b.n] = id, d
		b.n++
		if b.n < b.k {
			return
		}
		b.heapify(b.k)
	} else {
		b.siftDown(0, b.k, id, d)
	}
	b.bound = b.dists[0]
}

// siftDown stores (id, d) at slot i of the max-heap over the first m
// slots, moving larger children up until it sits above smaller ones.
func (b *KNNBuffer) siftDown(i, m int, id int32, d float64) {
	for c := 2*i + 1; c < m; i, c = c, 2*c+1 {
		if c+1 < m && b.dists[c+1] > b.dists[c] {
			c++
		}
		if !(b.dists[c] > d) {
			break
		}
		b.ids[i], b.dists[i] = b.ids[c], b.dists[c]
	}
	b.ids[i], b.dists[i] = id, d
}

// heapify orders the first m slots as a max-heap.
func (b *KNNBuffer) heapify(m int) {
	for i := m/2 - 1; i >= 0; i-- {
		b.siftDown(i, m, b.ids[i], b.dists[i])
	}
}

// sorted heapsorts the candidates into increasing distance and returns
// their count. Fewer than k arrive unordered and are heapified first.
func (b *KNNBuffer) sorted() int {
	m := b.n
	if m < b.k {
		b.heapify(m)
	}
	for j := m - 1; j > 0; j-- {
		id, d := b.ids[j], b.dists[j]
		b.ids[j], b.dists[j] = b.ids[0], b.dists[0]
		b.siftDown(0, j, id, d)
	}
	return m
}

// reheap reverses the m sorted slots into decreasing order, which is a
// max-heap: the buffer stays valid for further inserts after a result.
func (b *KNNBuffer) reheap(m int) {
	slices.Reverse(b.ids[:m])
	slices.Reverse(b.dists[:m])
}

// Result appends the k nearest candidate ids (sorted by increasing
// distance) to dst and returns it. Fewer than k are returned when fewer
// candidates were inserted.
func (b *KNNBuffer) Result(dst []int32) []int32 {
	m := b.sorted()
	dst = append(dst, b.ids[:m]...)
	b.reheap(m)
	return dst
}

// ResultInto writes the nearest candidate ids (sorted by increasing
// distance) into ids — and, when dists is non-nil, their squared distances
// into dists — without allocating, and returns the count written. Both
// destinations must have room for K() entries.
func (b *KNNBuffer) ResultInto(ids []int32, dists []float64) int {
	m := b.sorted()
	copy(ids, b.ids[:m])
	if dists != nil {
		copy(dists, b.dists[:m])
	}
	b.reheap(m)
	return m
}

// PrepareF32 arms the float32 column filter for one query: it snapshots
// the query's f32 image and precomputes the filter's distance error bound
// errD = maxAbs · F32CoordErr · √dim, where maxAbs is the largest
// coordinate magnitude involved (tree data or query). treeOK is the
// tree-side gate (finite, NaN-free, within F32SafeMax coordinates); the
// query side is gated here the same way. When either fails, the filter is
// disarmed and scans fall back to exact float64.
//
// Soundness of the filter (the refinement-bound argument): for a candidate
// at true distance d < √Bound(), its f32-scanned squared distance is at
// most ((d + errD)·(1+ε))² with ε the f32 accumulation error (< 2⁻²⁰ for
// ≤ 8 dims); RefineThreshold returns (√Bound() + errD)² · (1 + 2⁻¹⁸),
// which dominates it — so every candidate that could enter the buffer
// passes the filter, and skipped points provably could not. Survivors are
// re-measured in float64, which is what makes f32 a filter, never the
// answer.
func (b *KNNBuffer) PrepareF32(q []float64, treeMaxAbs float64, treeOK bool) {
	b.f32 = false
	if !treeOK {
		return
	}
	qMax := 0.0
	for _, v := range q {
		a := math.Abs(v)
		if !(a <= F32SafeMax) { // NaN or beyond the safe range
			return
		}
		if a > qMax {
			qMax = a
		}
	}
	combined := treeMaxAbs
	if qMax > combined {
		combined = qMax
	}
	for c, v := range q {
		b.q32[c] = float32(v)
	}
	b.errD = combined * F32CoordErr * math.Sqrt(float64(len(q)))
	b.thrFor = math.NaN() // never equal to a Bound() — forces recompute
	b.f32 = true
}

// ScanF32 reports whether the float32 filter is armed for the current
// query (set by PrepareF32, cleared when the data or query cannot be
// safely filtered in f32).
func (b *KNNBuffer) ScanF32() bool { return b.f32 }

// Q32 returns the float32 image of the prepared query's first dim
// coordinates — the kernel-side query vector.
func (b *KNNBuffer) Q32(dim int) []float32 { return b.q32[:dim] }

// DistScratch returns a length-m float32 column for the kernel to write
// squared distances into, reusing (and growing at most once) the buffer's
// scratch.
func (b *KNNBuffer) DistScratch(m int) []float32 {
	if cap(b.scratch) < m {
		b.scratch = make([]float32, m)
	}
	return b.scratch[:m]
}

// RefineThreshold returns the f32-scale squared-distance threshold below
// which a scanned candidate must be re-measured in float64 — the current
// Bound() widened by the filter's error (see PrepareF32). Recomputed only
// when the bound has moved since the last call; +Inf while the buffer is
// not yet full (every point refines, exactly as the f64 path would).
func (b *KNNBuffer) RefineThreshold() float64 {
	bd := b.Bound()
	if bd == b.thrFor {
		return b.thr
	}
	b.thrFor = bd
	if math.IsInf(bd, 1) {
		b.thr = inf
	} else {
		r := math.Sqrt(bd) + b.errD
		b.thr = r * r * (1 + 0x1p-18)
	}
	return b.thr
}

// EagerThreshold derives a provisional refinement threshold from the f32
// squared distances of one leaf's points while the buffer is still
// unbounded (fewer than k inserts, Bound() = +Inf). It takes the
// (k+1)-th smallest f32 distance — the +1 absorbs the query point itself
// when it sits in this leaf — and widens it by the filter's error, giving
// a provable upper bound B on the true k-th nearest distance: at least k
// non-query points have true distance ≤ B. Points beyond the widened B
// cannot be among the k nearest and are safely skipped before any float64
// work, which is what keeps the first-leaf scan from paying full-precision
// distances (and buffer churn) for an entire leaf.
//
// The (k+1)-th comes from a (k+1)-slot max-heap over the leaf: most
// values lose a single compare against its root, and the replacements
// decay geometrically down the leaf.
//
// Skipping here may change which of several exactly-tied candidates
// survives relative to a scan without the filter; the result's distance
// multiset — and, when distances are distinct, the ids — are unchanged.
// Returns +Inf (filter nothing) when the leaf cannot even bound k
// neighbors.
func (b *KNNBuffer) EagerThreshold(dists []float32) float64 {
	kk := b.k + 1
	if len(dists) < kk {
		return inf
	}
	h := b.sel[:kk]
	copy(h, dists)
	for i := kk/2 - 1; i >= 0; i-- {
		siftDownF32(h, i, h[i])
	}
	for _, v := range dists[kk:] {
		if v < h[0] {
			siftDownF32(h, 0, v)
		}
	}
	r := math.Sqrt(float64(h[0]))*(1+0x1p-18) + b.errD
	return r * r * (1 + 0x1p-18)
}

// siftDownF32 stores v at slot i of the max-heap h, moving larger
// children up until it sits above smaller ones.
func siftDownF32(h []float32, i int, v float32) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if !(h[c] > v) {
			break
		}
		h[i] = h[c]
	}
	h[i] = v
}
