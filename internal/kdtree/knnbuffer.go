package kdtree

import "math"

// F32CoordErr bounds the absolute error a float32-rounded coordinate can
// carry, as a fraction of the data's largest magnitude: rounding to f32 is
// within half an ulp, i.e. |x| · 2⁻²⁴ ≤ maxAbs · 2⁻²⁴ per value, and a
// filter-side coordinate difference involves two rounded values
// (maxAbs · 2⁻²³). 2⁻²¹ gives that bound a 4× safety margin.
const F32CoordErr = 0x1p-21

// KNNBuffer is the paper's "k-NN buffer" (Appendix C.1.3): a bounded buffer
// that maintains the k nearest neighbors seen so far with amortized O(1)
// inserts. It holds up to 2k candidates; when full, a selection partition
// around the k-th smallest distance discards the far half. The partition is
// O(k) and runs once per k inserts, giving the amortized constant bound.
//
// The buffer also carries the per-query state of the float32 column filter
// (PrepareF32): the query's f32 image, the filter's distance error bound,
// and the scratch column the kernel writes squared distances into — so a
// pooled buffer makes the whole filtered scan path allocation-free.
type KNNBuffer struct {
	k     int
	ids   []int32
	dists []float64
	n     int     // live candidates in the buffer
	bound float64 // current upper bound on the k-th nearest distance

	seeded bool // bound came from SeedBound (no compaction yet)

	// float32 filter state, valid for the query PrepareF32 saw last.
	f32     bool            // filter armed for this query
	fresh   bool            // no leaf scanned since PrepareF32
	q32     [MaxDim]float32 // f32 image of the query point
	errD    float64         // bound on |f32 distance − true distance|
	thr     float64         // cached refinement threshold (squared, f32 scale)
	thrFor  float64         // Bound() value thr was computed for
	scratch []float32       // kernel output column, grown on demand
	sel     []float32       // EagerThreshold quickselect scratch
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
		ids:     make([]int32, 2*k),
		dists:   make([]float64, 2*k),
		bound:   inf,
		scratch: make([]float32, knnScratchInit),
		sel:     make([]float32, knnScratchInit),
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
	b.seeded = false
}

// K returns the configured neighbor count.
func (b *KNNBuffer) K() int { return b.k }

// Full reports whether at least k candidates have been collected.
func (b *KNNBuffer) Full() bool { return b.n >= b.k }

// Bound returns the current upper bound on the k-th nearest squared
// distance: +inf until the buffer establishes one by compaction, or the
// value a caller primed via SeedBound. Used for subtree pruning.
func (b *KNNBuffer) Bound() float64 { return b.bound }

// SeedBound primes a fresh (just Reset) buffer with an externally proven
// upper bound s on the query's k-th nearest squared distance, arming
// subtree pruning and the f32 refine threshold from the first leaf. The
// bound must be STRICT — s > the true k-th distance — because inserts
// reject d ≥ bound and pruning drops boxes at ≥ bound: a merely equal seed
// could discard the k-th neighbor itself. Callers holding a non-strict
// bound B (e.g. the triangle-inequality hand-off in AllKNN, where
// √B = k-th(p) + |pq| can be exactly attained by collinear points) must
// inflate it by a relative epsilon and skip seeding when B = 0.
//
// Soundness: every point at distance < s is still inserted and no box
// containing one is pruned, so with ≥ k candidates in range the result is
// exact — identical to the unseeded scan up to the order exact ties are
// kept.
func (b *KNNBuffer) SeedBound(s float64) {
	if b.n == 0 && s < b.bound {
		b.bound = s
		b.seeded = true
	}
}

// tightenBound lowers the pruning bound to s mid-scan when a scanned leaf
// proves a tighter upper bound on the k-th distance than the caller's seed
// (see scanLeafF32). Zero is refused: a zero bound would reject the
// duplicate points that realize it.
func (b *KNNBuffer) tightenBound(s float64) {
	if s > 0 && s < b.bound {
		b.bound = s
	}
}

// Insert offers candidate id at squared distance d.
func (b *KNNBuffer) Insert(id int32, d float64) {
	if d >= b.bound {
		return
	}
	b.ids[b.n] = id
	b.dists[b.n] = d
	b.n++
	if b.n == len(b.ids) {
		b.compact()
	}
}

// compact partitions the buffer around the k-th smallest distance and drops
// everything beyond it.
func (b *KNNBuffer) compact() {
	if b.k <= 8 {
		// Small k (the batch k-NN regime): selection-sort the k smallest to
		// the front in ascending order — fewer ops than quickselect at this
		// size, and the sorted prefix makes the later result sort a no-op.
		for i := 0; i < b.k; i++ {
			mi := i
			for j := i + 1; j < b.n; j++ {
				if b.dists[j] < b.dists[mi] {
					mi = j
				}
			}
			if mi != i {
				b.swap(i, mi)
			}
		}
		b.n = b.k
		b.bound = b.dists[b.k-1]
		return
	}
	b.selectK(0, b.n-1, b.k-1)
	b.n = b.k
	b.bound = 0
	for i := 0; i < b.k; i++ {
		if b.dists[i] > b.bound {
			b.bound = b.dists[i]
		}
	}
}

// selectK performs in-place quickselect so that position kth holds the
// element of rank kth by distance.
func (b *KNNBuffer) selectK(lo, hi, kth int) {
	for lo < hi {
		// Median-of-three pivot.
		mid := (lo + hi) / 2
		if b.dists[mid] < b.dists[lo] {
			b.swap(mid, lo)
		}
		if b.dists[hi] < b.dists[lo] {
			b.swap(hi, lo)
		}
		if b.dists[hi] < b.dists[mid] {
			b.swap(hi, mid)
		}
		pivot := b.dists[mid]
		i, j := lo, hi
		for i <= j {
			for b.dists[i] < pivot {
				i++
			}
			for b.dists[j] > pivot {
				j--
			}
			if i <= j {
				b.swap(i, j)
				i++
				j--
			}
		}
		if kth <= j {
			hi = j
		} else if kth >= i {
			lo = i
		} else {
			return
		}
	}
}

func (b *KNNBuffer) swap(i, j int) {
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
	b.dists[i], b.dists[j] = b.dists[j], b.dists[i]
}

// sortPrefix compacts to at most k candidates, sorts them by increasing
// distance, and returns their count.
func (b *KNNBuffer) sortPrefix() int {
	m := b.n
	if m > b.k {
		b.compact()
		m = b.k
	}
	// Insertion sort by distance: m <= k is small.
	for i := 1; i < m; i++ {
		for j := i; j > 0 && b.dists[j] < b.dists[j-1]; j-- {
			b.swap(j, j-1)
		}
	}
	return m
}

// Result appends the k nearest candidate ids (sorted by increasing
// distance) to dst and returns it. Fewer than k are returned when fewer
// candidates were inserted.
func (b *KNNBuffer) Result(dst []int32) []int32 {
	m := b.sortPrefix()
	return append(dst, b.ids[:m]...)
}

// ResultInto writes the nearest candidate ids (sorted by increasing
// distance) into ids — and, when dists is non-nil, their squared distances
// into dists — without allocating, and returns the count written. Both
// destinations must have room for K() entries.
func (b *KNNBuffer) ResultInto(ids []int32, dists []float64) int {
	m := b.sortPrefix()
	copy(ids, b.ids[:m])
	if dists != nil {
		copy(dists, b.dists[:m])
	}
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
	b.fresh = true
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

// SealEager establishes a real pruning bound as soon as k candidates
// exist: the lazy scheme only sets one at the first 2k-full compaction,
// which leaves subtree pruning (and the refine threshold) disarmed for the
// first leaves of every query. Called after each leaf scanned in the
// unbounded phase; a no-op once a bound exists.
func (b *KNNBuffer) SealEager() {
	if b.n >= b.k && math.IsInf(b.bound, 1) {
		b.compact()
	}
}

// EagerThreshold derives a provisional refinement threshold from the f32
// squared distances of one leaf's points while the buffer is still
// unbounded (fewer than 2k inserts, Bound() = +Inf). It takes the
// (k+1)-th smallest f32 distance — the +1 absorbs the query point itself
// when it sits in this leaf — and widens it by the filter's error, giving
// a provable upper bound B on the true k-th nearest distance: at least k
// non-query points have true distance ≤ B. Points beyond the widened B
// cannot be among the k nearest and are safely skipped before any float64
// work, which is what keeps the first-leaf scan from paying full-precision
// distances (and buffer churn) for an entire leaf.
//
// Skipping here may change which of several exactly-tied candidates
// survives compaction relative to a scan without the filter; the result's
// distance multiset — and, when distances are distinct, the ids — are
// unchanged. Returns +Inf (filter nothing) when the leaf cannot even
// bound k neighbors.
func (b *KNNBuffer) EagerThreshold(dists []float32) float64 {
	m := len(dists)
	if m <= b.k {
		return inf
	}
	kk := b.k + 1
	var kth float64
	if kk <= 16 {
		// Small k: track the kk smallest in one pass. Most values lose a
		// single compare against the running max; replacements (which
		// rescan the kk-tracker) decay geometrically down the leaf.
		if cap(b.sel) < kk {
			b.sel = make([]float32, kk)
		}
		sel := b.sel[:kk]
		copy(sel, dists[:kk])
		mx, mi := sel[0], 0
		for i := 1; i < kk; i++ {
			if sel[i] > mx {
				mx, mi = sel[i], i
			}
		}
		for _, v := range dists[kk:] {
			if v < mx {
				sel[mi] = v
				mx, mi = sel[0], 0
				for i := 1; i < kk; i++ {
					if sel[i] > mx {
						mx, mi = sel[i], i
					}
				}
			}
		}
		kth = float64(mx)
	} else {
		if cap(b.sel) < m {
			b.sel = make([]float32, m)
		}
		sel := b.sel[:m]
		copy(sel, dists)
		kth = float64(selectF32(sel, b.k))
	}
	r := math.Sqrt(kth)*(1+0x1p-18) + b.errD
	return r * r * (1 + 0x1p-18)
}

// selectF32 quickselects rank kth (0-indexed) of s by value and returns
// that element. Mutates s.
func selectF32(s []float32, kth int) float32 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if kth <= j {
			hi = j
		} else if kth >= i {
			lo = i
		} else {
			break
		}
	}
	return s[kth]
}

// KthDist returns the exact k-th nearest squared distance collected so far
// (+inf if fewer than k candidates). Unlike Bound — which may be stale
// between compactions, or a caller-seeded overestimate, and is only an
// upper bound for pruning — KthDist always compacts first, so it is exact.
func (b *KNNBuffer) KthDist() float64 {
	if b.n < b.k {
		return inf
	}
	if b.n > b.k {
		b.compact()
		return b.bound
	}
	// Exactly k candidates: they are the answer, whatever b.bound says.
	mx := 0.0
	for _, d := range b.dists[:b.k] {
		if d > mx {
			mx = d
		}
	}
	return mx
}
