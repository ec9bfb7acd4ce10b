// Package kdtree implements ParGeo's static parallel kd-tree (Module 1):
// parallel construction with object-median or spatial-median splits,
// exact k-nearest-neighbor search through a k-slot max-heap buffer whose
// root is the exact k-th distance (single-query KNNInto and the batched,
// data-parallel AllKNN), and orthogonal range search. The tree also
// exposes its node structure (bounding boxes, children, subtree point
// ranges), which the WSPD, EMST, and bichromatic-closest-pair modules
// traverse directly.
//
// Construction follows §2 and Appendix C.1: split along the widest
// dimension of the node's bounding box, either at the object median (median
// point coordinate, via quickselect) or the spatial median (midpoint of the
// box extent); recursion on the two sides forks through parlay's
// work-stealing scheduler (nested fork-join, no depth limit) until subtrees
// fall below the sequential grain, so skewed splits rebalance dynamically.
// The build partitions its rows in place: a row is one point's coordinates
// plus one int32 label, every quickselect or spatial split swaps whole
// rows, and each node owns a contiguous range of them. When the build ends,
// Pts holds the points in leaf order and Idx[r] is the label of row r — the
// id queries report and exclude. Build labels row i of a private copy of
// the caller's points with i, so its queries report point indices;
// BuildRows takes ownership of the caller's rows and labels (a BDL level's
// global ids) and builds over them without a copy.
//
// On layout: nodes live in one flat arena (Tree.Nodes), allocated in bulk
// and laid out in DFS preorder — every subtree occupies a contiguous node
// range, a node's left child is the next arena slot, and children are
// addressed by int32 index instead of pointer. Object-median trees have
// data-independent shapes, so the arena is carved into exact disjoint
// per-subtree ranges during the parallel build (lock-free, O(1)
// allocations); spatial-median builds carve worst-case slabs (bounded by a
// minimum leaf fill) and compact to gap-free preorder afterwards. It stands
// in for the paper's cache-oblivious van Emde Boas order (Appendix C.1.1)
// everywhere, the BDL-tree's static levels included: contiguous,
// pointer-free, and cache-friendly for the traversals ParGeo performs.
//
// There is one layout: row r of Pts is the point whose f32 image sits in
// slot r of its leaf slab, so a filtered leaf re-verifies rows that lie
// next to each other, and the boxes, quickselects and slabs of the build
// read contiguous rows rather than gathering through an index. Dead may
// tombstone rows (a BDL level's lazy erase); a tree without tombstones
// reports every row.
//
// Leaf scan layout: the tree caches each leaf's coordinates as a
// dimension-major (SoA) float32 slab (Tree.CoordsF32). A leaf owning rows
// [Lo, Hi) with m = Hi−Lo points stores coordinate c of its i-th
// point at CoordsF32[Lo*Dim + c*m + i] — m-long columns, one per
// dimension, filled at build time while the leaf's points are cache-hot.
// The k-NN and range inner loops hand whole columns to internal/kernel
// (SqDistsF32, PruneBox), which scans them 8 points per vector op on
// hosts with AVX2 and in tight pure-Go loops elsewhere. float32 is a
// conservative FILTER, never the answer: the scan discards only points
// that provably cannot matter under the f32 error bound (see
// KNNBuffer.PrepareF32 and docs/ARCHITECTURE.md "Scan kernels"), and every
// surviving candidate is re-verified against the retained float64
// coordinates in Pts — results are exact, id for id. Trees whose
// coordinates cannot be safely filtered in float32 (magnitudes beyond
// F32SafeMax, NaN boxes) fall back to scalar float64 scans of Pts.
package kdtree

import (
	"math"
	"slices"

	"pargeo/internal/geom"
	"pargeo/internal/kernel"
	"pargeo/internal/parlay"
)

var inf = math.Inf(1)

// F32SafeMax is the largest coordinate magnitude (tree point or query) the
// float32 filter path accepts. Below it, squared distances over MaxDim
// dimensions stay finite in float32 (8·(2e18)² ≈ 3.2e37 < MaxFloat32) and
// the filter's absolute error bound holds; beyond it — or when a bounding
// box carries NaN — queries fall back to exact scalar float64 scans.
// bdltree applies the same gate to its static trees.
const F32SafeMax = 1e18

// MaxDim is the largest supported dimensionality (the paper evaluates up to
// 7 dimensions; boxes are stored inline for allocation-free nodes).
const MaxDim = 8

// SplitRule selects the node-splitting heuristic (§6.3: "splitting the
// points based on either using the object median ... or the spatial
// median").
type SplitRule int

const (
	// ObjectMedian splits at the median point coordinate along the widest
	// dimension: balanced trees, higher build cost.
	ObjectMedian SplitRule = iota
	// SpatialMedian splits at the midpoint of the bounding-box extent:
	// cheaper splits, possibly unbalanced trees.
	SpatialMedian
)

func (s SplitRule) String() string {
	if s == ObjectMedian {
		return "object"
	}
	return "spatial"
}

// Options configure tree construction.
type Options struct {
	Split    SplitRule
	LeafSize int // max points per leaf; default 32 (one f32 scan chunk)
	Serial   bool
}

// Node is a kd-tree node stored in the tree's flat preorder arena. Leaves
// have Left == 0 and own the rows [Lo, Hi); internal nodes carry the split
// plane and address their children by arena index (Left is always the
// node's own index + 1 — preorder). Every node (incl. internal) owns its
// subtree's contiguous row range [Lo, Hi).
type Node struct {
	MinC, MaxC  [MaxDim]float64 // bounding box (first Dim entries valid)
	Lo, Hi      int32           // owned rows of Tree.Pts and Tree.Idx
	Left, Right int32           // children as Tree.Nodes indices; 0 = leaf
	SplitVal    float64
	SplitDim    int8
}

// IsLeaf reports whether the node is a leaf. (Index 0 is the root, which is
// never anyone's child, so 0 doubles as the nil child.)
func (nd *Node) IsLeaf() bool { return nd.Left == 0 }

// Size returns the number of points in the node's subtree.
func (nd *Node) Size() int { return int(nd.Hi - nd.Lo) }

// Tree is a static kd-tree over its own rows, in leaf order.
type Tree struct {
	// Pts holds the tree's points in leaf order: a node's points are the
	// rows [Lo, Hi). The tree owns this buffer.
	Pts geom.Points
	// Idx[r] is the label of row r: the id queries report and exclude. A
	// Build tree labels each row with the index of its point in the
	// caller's buffer.
	Idx []int32
	// Nodes is the preorder node arena: Nodes[0] is the root, every subtree
	// occupies a contiguous range, and a node's left child immediately
	// follows it. Allocated in bulk — builds do O(1) allocations.
	Nodes []Node
	// CoordsF32 caches point coordinates in dimension-major (SoA) float32
	// columns, one slab per leaf: a leaf owning rows [Lo, Hi) with
	// m = Hi−Lo points stores coordinate c of its i-th row at
	// CoordsF32[Lo*Dim + c*m + i]. The k-NN and range inner loops scan
	// these columns through internal/kernel as a conservative filter and
	// re-verify survivors against the float64 truth in Pts.
	CoordsF32 []float32
	// maxAbs is the largest |coordinate| in the tree (from the root box)
	// and f32ok whether the float32 filter path is sound for this data
	// (finite, below F32SafeMax, NaN-free box). Derived once after build.
	maxAbs float64
	f32ok  bool
	opts   Options
	// Dead is the tombstone bitset: bit r set means row r is deleted and no
	// query reports it. nil means every row is live. Never written once the
	// tree is visible to readers: an eraser installs a fresh bitset in a
	// copy of the Tree, which shares every other array.
	Dead []uint64
}

// IsDead reports whether row r is tombstoned.
func (t *Tree) IsDead(r int32) bool {
	return t.Dead != nil && t.Dead[r>>6]>>(uint(r)&63)&1 != 0
}

// Root returns the root node, or nil for an empty tree.
func (t *Tree) Root() *Node {
	if len(t.Nodes) == 0 {
		return nil
	}
	return &t.Nodes[0]
}

// Left returns nd's left child (nd must be internal).
func (t *Tree) Left(nd *Node) *Node { return &t.Nodes[nd.Left] }

// Right returns nd's right child (nd must be internal).
func (t *Tree) Right(nd *Node) *Node { return &t.Nodes[nd.Right] }

// Build constructs a kd-tree over a private copy of pts, labelling the copy
// of point i with i, so queries report point indices. The caller's buffer
// is only read.
func Build(pts geom.Points, opts Options) *Tree {
	n, dim := pts.Len(), pts.Dim
	rows := make([]float64, n*dim)
	labels := make([]int32, n)
	parlay.ForBlocked(n, 1<<14, func(lo, hi int) {
		copy(rows[lo*dim:hi*dim], pts.Data[lo*dim:hi*dim])
		for i := lo; i < hi; i++ {
			labels[i] = int32(i)
		}
	})
	return BuildRows(geom.Points{Data: rows, Dim: dim}, labels, opts)
}

// BuildRows constructs a kd-tree over pts, labelling point i with
// labels[i]. The tree takes ownership of both slices and partitions them in
// place: afterwards pts.Data holds the rows in leaf order and labels[r] the
// label of row r (they are the tree's Pts and Idx). Queries report, and
// exclude, labels.
func BuildRows(pts geom.Points, labels []int32, opts Options) *Tree {
	if pts.Dim > MaxDim {
		panic("kdtree: dimension exceeds MaxDim")
	}
	if opts.LeafSize <= 0 {
		opts.LeafSize = 32
	}
	n := len(labels)
	t := &Tree{Pts: geom.Points{Data: pts.Data[:n*pts.Dim], Dim: pts.Dim}, Idx: labels, opts: opts}
	if n == 0 {
		return t
	}
	// The dimension-major leaf slabs are filled as each leaf is built,
	// while its rows are cache-hot from the leaf's bounding-box pass.
	t.CoordsF32 = make([]float32, n*pts.Dim)
	par := !opts.Serial
	root := rowSpan{t.Pts.Data, t.Idx, pts.Dim, 0}
	switch opts.Split {
	case SpatialMedian:
		// Spatial splits are data-dependent, so subtree node counts are not
		// known up front: carve worst-case slabs (bounded by the minimum
		// leaf fill the builder guarantees), then compact to gap-free
		// preorder.
		arena := make([]Node, spatialNodeBound(int32(n), int32(opts.LeafSize)))
		used := t.buildSpatial(arena, 0, root, par)
		t.Nodes = compactPreorder(arena, used)
	default: // ObjectMedian
		// Object-median shapes depend only on subtree sizes, so the exact
		// node count — and every subtree's exact arena range — is known
		// before building: one bulk make, disjoint lock-free carving.
		t.Nodes = make([]Node, objectNodeCount(int32(n), int32(opts.LeafSize)))
		t.buildObject(0, root, par)
	}
	t.finishF32()
	return t
}

// finishF32 derives the float32-filter gate from the root bounding box
// (already computed by the build): the filter is sound only when every
// dimension's extent is finite, NaN-free, and within F32SafeMax. Checking
// the box rather than rescanning points is free and race-free; a NaN
// coordinate that a min/max pass absorbs silently was never supported by
// the exact search paths, exactly as before this layout.
func (t *Tree) finishF32() {
	root := t.Root()
	if root == nil {
		return
	}
	maxAbs := 0.0
	for c := 0; c < t.Pts.Dim; c++ {
		mn, mx := root.MinC[c], root.MaxC[c]
		if !(mn <= mx) { // NaN, or inverted from an all-NaN column
			return
		}
		a := math.Max(math.Abs(mn), math.Abs(mx))
		if a > F32SafeMax {
			return
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	t.maxAbs = maxAbs
	t.f32ok = true
}

// parallelBuildThreshold: below this many points a subtree builds serially —
// the fork-join grain. Above it the two children fork as nested Do tasks and
// the scheduler balances the recursion tree, however skewed the splits.
const parallelBuildThreshold = 4096

// objectNodeCount returns the exact node count of an object-median subtree
// over m points: splitting m > leafSize yields children of ⌊m/2⌋ and ⌈m/2⌉
// points, so the shape is a function of m alone. All subtree sizes at one
// depth differ by at most one, which lets the whole profile walk down in
// O(log m) steps tracking two (size, count) pairs — no allocation.
func objectNodeCount(m, leafSize int32) int32 {
	if m <= leafSize {
		return 1
	}
	L := int64(leafSize)
	var leaves, internal int64
	s := int64(m) // smaller of the (at most two) sizes at this level
	cs := int64(1)
	cs1 := int64(0) // count of size-(s+1) nodes
	for {
		if s+1 <= L {
			leaves += cs + cs1
			break
		}
		if s <= L {
			leaves += cs
			cs = 0
		}
		internal += cs + cs1
		// Children of a size-s node are ⌊s/2⌋ and ⌈s/2⌉ (and of s+1,
		// ⌊(s+1)/2⌋ and ⌈(s+1)/2⌉), so the next level again holds only the
		// two sizes ⌊s/2⌋ and ⌊s/2⌋+1.
		if s%2 == 0 {
			cs = 2*cs + cs1
		} else {
			cs1 = cs + 2*cs1
		}
		s /= 2
	}
	return int32(leaves + internal)
}

// minLeafFill is the smallest point count the builder allows a non-root
// leaf: object-median children of a splittable node have ≥ ⌈leafSize/2⌉
// points, and the spatial-median builder falls back to the object median
// whenever the midpoint cut would leave a side smaller than that. The fill
// floor is what bounds the arena: ≤ ⌊m/fill⌋ leaves, ≤ 2⌊m/fill⌋−1 nodes.
func minLeafFill(leafSize int32) int32 { return (leafSize + 1) / 2 }

// spatialNodeBound returns an upper bound on the node count of a
// spatial-median subtree over m points, given the minimum leaf fill.
func spatialNodeBound(m, leafSize int32) int32 {
	l := m / minLeafFill(leafSize)
	if l < 1 {
		l = 1
	}
	return 2*l - 1
}

// buildObject fills the subtree rooted at arena slot node over the rows of
// s. Exact object-median counting makes the carving tight: the subtree
// occupies exactly objectNodeCount(rows) slots from node on.
func (t *Tree) buildObject(node int32, s rowSpan, par bool) {
	nd := &t.Nodes[node]
	nd.Lo, nd.Hi = s.lo, s.lo+int32(len(s.lab))
	n := int32(len(s.lab))
	if int(n) <= t.opts.LeafSize {
		t.buildLeaf(nd, s) // Left stays 0
		return
	}
	s.box(nd)
	dim := widestDim(nd, s.dim)
	mid := n / 2
	s.nthElement(int(mid), dim)
	nd.SplitVal = s.key(int(mid), dim)
	nd.SplitDim = int8(dim)
	nd.Left = node + 1
	nd.Right = node + 1 + objectNodeCount(mid, int32(t.opts.LeafSize))
	l, r := s.cut(mid)
	if par && int(n) > parallelBuildThreshold {
		parlay.Do(
			func() { t.buildObject(nd.Left, l, true) },
			func() { t.buildObject(nd.Right, r, true) },
		)
	} else {
		t.buildObject(nd.Left, l, false)
		t.buildObject(nd.Right, r, false)
	}
}

// buildSpatial fills the subtree rooted at arena slot node over the rows of
// s, carving child slabs by the worst-case bound, and returns the number
// of nodes the subtree actually used (its gap-free size after compaction).
func (t *Tree) buildSpatial(arena []Node, node int32, s rowSpan, par bool) int32 {
	nd := &arena[node]
	nd.Lo, nd.Hi = s.lo, s.lo+int32(len(s.lab))
	n := int32(len(s.lab))
	if int(n) <= t.opts.LeafSize {
		t.buildLeaf(nd, s)
		return 1
	}
	s.box(nd)
	leafSize := int32(t.opts.LeafSize)
	dim := widestDim(nd, s.dim)
	splitVal := (nd.MinC[dim] + nd.MaxC[dim]) / 2
	mid := int32(-1)
	if !math.IsNaN(splitVal) && !math.IsInf(splitVal, 0) {
		mid = int32(s.partition(dim, splitVal))
	}
	if fill := minLeafFill(leafSize); mid < fill || n-mid < fill {
		// A cut that is not finite (an infinite or NaN box extent), or a
		// degenerate or heavily skewed one: fall back to the object median.
		// This guarantees progress (the classic mid==lo/hi case) and keeps
		// every leaf at least half full, which is what bounds the arena
		// and the tree depth.
		mid = n / 2
		s.nthElement(int(mid), dim)
		splitVal = s.key(int(mid), dim)
	}
	nd.SplitVal = splitVal
	nd.SplitDim = int8(dim)
	nd.Left = node + 1
	nd.Right = node + 1 + spatialNodeBound(mid, leafSize)
	l, r := s.cut(mid)
	if par && int(n) > parallelBuildThreshold {
		// The result cells live only in the (rare) fork branch: hoisting
		// them out would heap-box them on every call, since the closures
		// write to them.
		var lUsed, rUsed int32
		parlay.Do(
			func() { lUsed = t.buildSpatial(arena, nd.Left, l, true) },
			func() { rUsed = t.buildSpatial(arena, nd.Right, r, true) },
		)
		return 1 + lUsed + rUsed
	}
	return 1 + t.buildSpatial(arena, nd.Left, l, false) +
		t.buildSpatial(arena, nd.Right, r, false)
}

// compactPreorder re-emits the (possibly gappy) slab-carved arena as a
// gap-free preorder array of exactly total nodes. A node's new left child
// index is its own index + 1; the right child lands right after the left
// subtree, restoring the contiguous-subtree invariant with zero slack.
func compactPreorder(arena []Node, total int32) []Node {
	out := make([]Node, total)
	next := int32(0)
	var rec func(old int32)
	rec = func(old int32) {
		nd := arena[old]
		self := next
		next++
		if nd.Left != 0 {
			l, r := nd.Left, nd.Right
			nd.Left = next
			rec(l)
			nd.Right = next
			rec(r)
		}
		out[self] = nd
	}
	rec(0)
	return out
}

// buildLeaf fills a leaf's bounding box and its dimension-major float32
// slab: m-long columns, one per dimension, starting at CoordsF32[Lo*Dim].
func (t *Tree) buildLeaf(nd *Node, s rowSpan) {
	s.box(nd)
	dim, m := s.dim, len(s.lab)
	slab := t.CoordsF32[int(nd.Lo)*dim : int(nd.Lo)*dim+m*dim]
	for i := 0; i < m; i++ {
		for c, v := range s.data[i*dim : i*dim+dim] {
			slab[c*m+i] = float32(v)
		}
	}
}

func widestDim(nd *Node, dim int) int {
	best, bw := 0, nd.MaxC[0]-nd.MinC[0]
	for c := 1; c < dim; c++ {
		if w := nd.MaxC[c] - nd.MinC[c]; w > bw {
			best, bw = c, w
		}
	}
	return best
}

// Points returns the labels of the node's rows — point indices, in a Build
// tree. The node's coordinates are the rows [Lo, Hi) of Pts.
func (t *Tree) Points(nd *Node) []int32 { return t.Idx[nd.Lo:nd.Hi] }

// --- k-nearest neighbors ----------------------------------------------

// KNN returns, for each query point index in queries, its k nearest
// neighbors among the tree's points (by point index), excluding the query
// point itself. Point indices are labels, so the tree must label its rows
// 0..n−1, as Build does; a label→row inverse built per call locates each
// query's row. Queries run data-parallel (§5 "Data-Parallel k-NN"); out[i]
// holds the neighbors of queries[i], nearest first. It panics when k < 1.
func (t *Tree) KNN(queries []int32, k int) [][]int32 {
	CheckK(k)
	row := make([]int32, len(t.Idx))
	parlay.For(len(t.Idx), 0, func(r int) { row[t.Idx[r]] = int32(r) })
	out := make([][]int32, len(queries))
	parlay.ForBlocked(len(queries), 64, func(lo, hi int) {
		buf := NewKNNBuffer(k)
		for i := lo; i < hi; i++ {
			buf.Reset()
			q := queries[i]
			t.KNNInto(t.Pts.At(int(row[q])), q, buf)
			out[i] = buf.Result(nil)
		}
	})
	return out
}

// KNNInto runs a single k-NN query for coordinates q into buf (which the
// caller Reset()s between unrelated queries but deliberately reuses across
// the levels of a BDL-tree: the candidates and the k-th-distance bound
// carry over, while the float32 filter is re-armed here for this tree's own
// magnitude gate). exclude is a label — a point index, in a Build tree —
// to skip (-1 for none). With a reused buffer the query
// allocates nothing.
func (t *Tree) KNNInto(q []float64, exclude int32, buf *KNNBuffer) {
	if len(t.Nodes) > 0 {
		buf.PrepareF32(q, t.maxAbs, t.f32ok)
		t.knnRec(0, q, exclude, buf)
	}
}

func (t *Tree) knnRec(ni int32, q []float64, exclude int32, buf *KNNBuffer) {
	nd := &t.Nodes[ni]
	if nd.Left == 0 {
		t.scanLeaf(nd, q, exclude, buf)
		return
	}
	// Descend into the nearer child first.
	near, far := nd.Left, nd.Right
	ds := q[nd.SplitDim] - nd.SplitVal
	if ds >= 0 {
		near, far = far, near
	}
	t.knnRec(near, q, exclude, buf)
	// Paper heuristic (C.1.3): while no pruning bound exists (neither
	// collected from leaves nor loaded by the caller), eagerly visit the
	// sibling to establish one as fast as possible.
	bd := buf.Bound()
	if math.IsInf(bd, 1) {
		t.knnRec(far, q, exclude, buf)
		return
	}
	// The split-plane distance lower-bounds the far child's box distance,
	// so it prunes (or admits the box test) without touching the far node.
	if ds*ds < bd && boxSqDist(&t.Nodes[far], q, t.Pts.Dim) < bd {
		t.knnRec(far, q, exclude, buf)
	}
}

// offer re-measures row r in float64 and offers it to buf, unless it is
// the excluded id or tombstoned. Every candidate of every k-NN scan enters
// the buffer here, after whatever filtering the scan did.
func (t *Tree) offer(r int32, q []float64, exclude int32, buf *KNNBuffer) {
	if id := t.Idx[r]; id != exclude && !t.IsDead(r) {
		buf.Insert(id, geom.SqDist(q, t.Pts.At(int(r))))
	}
}

// scanLeaf offers one leaf's rows to buf: through the float32 filter when
// it is armed for this tree and query, else — huge or NaN coordinates — by
// an exact scalar scan of the float64 truth, the one such fallback for
// k-NN.
func (t *Tree) scanLeaf(nd *Node, q []float64, exclude int32, buf *KNNBuffer) {
	if buf.ScanF32() {
		t.scanLeafF32(nd, q, exclude, buf)
		return
	}
	for r := nd.Lo; r < nd.Hi; r++ {
		t.offer(r, q, exclude, buf)
	}
}

// scanLeafF32 is the filtered leaf scan: one kernel call computes the f32
// squared distances of the whole leaf's columns, then only candidates
// within the refinement threshold (the f32 image of the current bound,
// padded by the filter's error — see KNNBuffer.PrepareF32) are re-measured
// in float64 and offered to the buffer — the tombstone test runs there, on
// survivors only. Points the filter skips provably could not have been
// inserted, so results are exact, id for id.
func (t *Tree) scanLeafF32(nd *Node, q []float64, exclude int32, buf *KNNBuffer) {
	dim := t.Pts.Dim
	m := int(nd.Hi - nd.Lo)
	base := int(nd.Lo) * dim
	dists := buf.DistScratch(m)
	kernel.SqDistsF32(dists, buf.Q32(dim), t.CoordsF32[base:base+m*dim], m, m)
	thr := buf.RefineThreshold()
	// Unbounded (eager) phase: bound the true k-th distance from the f32
	// scan itself, so even the first leaf refines only ~k points. That
	// bound counts every scanned row as a neighbour, and the slab still
	// holds tombstoned rows: where k dead rows sit nearest, it would
	// discard every live one. A tree with tombstones refines the whole
	// leaf instead.
	if math.IsInf(thr, 1) && t.Dead == nil {
		thr = buf.EagerThreshold(dists)
	}
	for i := 0; i < m; i++ {
		if float64(dists[i]) <= thr {
			t.offer(nd.Lo+int32(i), q, exclude, buf)
			if t2 := buf.RefineThreshold(); t2 < thr {
				thr = t2
			}
		}
	}
}

func boxSqDist(nd *Node, q []float64, dim int) float64 {
	return kernel.MinSqDistToBox(q, nd.MinC[:dim], nd.MaxC[:dim])
}

// --- range search -------------------------------------------------------

// rangeChunk is the leaf-scan chunk: PruneBox masks land in a fixed stack
// buffer so range queries allocate nothing per leaf.
const rangeChunk = 64

// rangeCtx carries one range query's state down the recursion: the exact
// float64 box, plus — when the filter is sound — its conservatively
// widened float32 image for the column filter. The widening (2× the
// coordinate error bound per side) guarantees every truly-inside point
// passes the f32 filter; survivors are re-verified against the float64
// truth, so results are exact.
type rangeCtx struct {
	box        geom.Box
	lo32, hi32 [MaxDim]float32
	f32        bool
}

func (t *Tree) makeRangeCtx(box geom.Box) rangeCtx {
	rc := rangeCtx{box: box}
	if !t.f32ok {
		return rc
	}
	pad := 2 * t.maxAbs * F32CoordErr
	for c := 0; c < t.Pts.Dim; c++ {
		if math.IsNaN(box.Min[c]) || math.IsNaN(box.Max[c]) {
			return rc
		}
		rc.lo32[c] = float32(box.Min[c] - pad)
		rc.hi32[c] = float32(box.Max[c] + pad)
	}
	rc.f32 = true
	return rc
}

// RangeSearch returns the labels (point indices, in a Build tree) of all
// live points inside the closed box.
func (t *Tree) RangeSearch(box geom.Box) []int32 {
	var out []int32
	if len(t.Nodes) > 0 {
		rc := t.makeRangeCtx(box)
		t.rangeRec(0, &rc, &out, nil)
	}
	return out
}

// RangeCount returns the number of live points inside the closed box.
func (t *Tree) RangeCount(box geom.Box) int {
	cnt := 0
	if len(t.Nodes) > 0 {
		rc := t.makeRangeCtx(box)
		t.rangeRec(0, &rc, nil, &cnt)
	}
	return cnt
}

func (t *Tree) nodeBoxIn(nd *Node, box geom.Box) (inside, disjoint bool) {
	inside, disjoint = true, false
	for c := 0; c < t.Pts.Dim; c++ {
		if nd.MaxC[c] < box.Min[c] || nd.MinC[c] > box.Max[c] {
			return false, true
		}
		if nd.MinC[c] < box.Min[c] || nd.MaxC[c] > box.Max[c] {
			inside = false
		}
	}
	return inside, false
}

// rangeRec reports the live in-box rows under node ni: their ids appended
// to out when it is non-nil, else counted into cnt.
func (t *Tree) rangeRec(ni int32, rc *rangeCtx, out *[]int32, cnt *int) {
	nd := &t.Nodes[ni]
	inside, disjoint := t.nodeBoxIn(nd, rc.box)
	switch {
	case disjoint:
	case inside && t.Dead == nil:
		if out != nil {
			*out = append(*out, t.Idx[nd.Lo:nd.Hi]...)
		} else {
			*cnt += nd.Size()
		}
	case inside || (nd.Left == 0 && !rc.f32):
		// A covered subtree with tombstones to skip, or a leaf of the
		// fallback (huge or NaN coordinates): row by row against the
		// float64 truth, the one such scan for range queries.
		for r := nd.Lo; r < nd.Hi; r++ {
			t.rangeRow(r, rc, inside, out, cnt)
		}
	case nd.Left == 0:
		t.rangeLeafF32(nd, rc, out, cnt)
	default:
		t.rangeRec(nd.Left, rc, out, cnt)
		t.rangeRec(nd.Right, rc, out, cnt)
	}
}

// rangeRow reports row r if it is live and — unless the caller knows the
// whole node is inside — its float64 coordinates are in the box.
func (t *Tree) rangeRow(r int32, rc *rangeCtx, inside bool, out *[]int32, cnt *int) {
	if !t.IsDead(r) && (inside || rc.box.Contains(t.Pts.At(int(r)))) {
		if out != nil {
			*out = append(*out, t.Idx[r])
		} else {
			*cnt++
		}
	}
}

// rangeLeafF32 scans one leaf through the f32 column filter: PruneBox
// masks rangeChunk points at a time against the widened f32 box, and only
// masked-in rows are checked for tombstones and verified against the exact
// float64 box.
func (t *Tree) rangeLeafF32(nd *Node, rc *rangeCtx, out *[]int32, cnt *int) {
	dim := t.Pts.Dim
	m := int(nd.Hi - nd.Lo)
	base := int(nd.Lo) * dim
	slab := t.CoordsF32[base : base+m*dim]
	var mask [rangeChunk]byte
	for off := 0; off < m; off += rangeChunk {
		cn := min(m-off, rangeChunk)
		kernel.PruneBox(mask[:cn], rc.lo32[:dim], rc.hi32[:dim], slab[off:], cn, m)
		for i := 0; i < cn; i++ {
			if mask[i] != 0 {
				t.rangeRow(nd.Lo+int32(off+i), rc, false, out, cnt)
			}
		}
	}
}

// RangeSearchParallel answers many box queries data-parallel.
func (t *Tree) RangeSearchParallel(boxes []geom.Box) [][]int32 {
	out := make([][]int32, len(boxes))
	parlay.For(len(boxes), 16, func(i int) {
		out[i] = t.RangeSearch(boxes[i])
	})
	return out
}

// --- exact-match point location ------------------------------------------

// MatchRows appends to rows every live row of the tree whose
// float64 coordinates equal q (==, so -0 matches +0 and NaN matches
// nothing) — the lookup a batch deletion runs once per candidate and level.
// It is a point location, not a box search: the root box rejects q outright
// (a NaN coordinate fails that test too, so it never reaches a split),
// then every node costs one comparison with its split plane.
func (t *Tree) MatchRows(q []float64, rows []int32) []int32 {
	if len(t.Nodes) == 0 || !nodeHolds(&t.Nodes[0], q) {
		return rows
	}
	return t.matchRec(0, q, rows)
}

// nodeHolds reports whether q lies in nd's closed box; false if q has a NaN.
func nodeHolds(nd *Node, q []float64) bool {
	for c, v := range q {
		if !(nd.MinC[c] <= v && v <= nd.MaxC[c]) {
			return false
		}
	}
	return true
}

// matchRec descends from node ni to the leaves that can hold q. Both
// builders put coordinates below the split value left and above it right;
// equal ones land on either side, so a tie follows both children — each
// only if its box holds q, which keeps grid data (many rows on a split
// plane, few of them at q's other coordinates) from fanning out.
func (t *Tree) matchRec(ni int32, q []float64, rows []int32) []int32 {
	nd := &t.Nodes[ni]
	for nd.Left != 0 {
		switch v := q[nd.SplitDim]; {
		case v < nd.SplitVal:
			nd = &t.Nodes[nd.Left]
		case v > nd.SplitVal:
			nd = &t.Nodes[nd.Right]
		default:
			if nodeHolds(&t.Nodes[nd.Left], q) {
				rows = t.matchRec(nd.Left, q, rows)
			}
			if nd = &t.Nodes[nd.Right]; !nodeHolds(nd, q) {
				return rows
			}
		}
	}
	// The leaf's first f32 column filters, the float64 row decides. Equal
	// float64s round to equal float32s whatever their magnitude, so unlike
	// the distance and box filters this one needs no f32ok gate.
	m := int(nd.Hi - nd.Lo)
	q0 := float32(q[0])
	for i, v := range t.CoordsF32[int(nd.Lo)*len(q):][:m] {
		if v == q0 {
			if r := nd.Lo + int32(i); !t.IsDead(r) && slices.Equal(t.Pts.At(int(r)), q) {
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// --- node geometry helpers used by WSPD / BCCP --------------------------

// NodeSqDist returns the squared distance between the bounding boxes of two
// nodes (possibly from different trees over buffers of equal dimension).
func NodeSqDist(a, b *Node, dim int) float64 {
	s := 0.0
	for c := 0; c < dim; c++ {
		var d float64
		if b.MaxC[c] < a.MinC[c] {
			d = a.MinC[c] - b.MaxC[c]
		} else if a.MaxC[c] < b.MinC[c] {
			d = b.MinC[c] - a.MaxC[c]
		}
		s += d * d
	}
	return s
}

// NodeMaxSqDist returns the squared distance between the farthest corners
// of two nodes' boxes.
func NodeMaxSqDist(a, b *Node, dim int) float64 {
	s := 0.0
	for c := 0; c < dim; c++ {
		d := math.Max(b.MaxC[c]-a.MinC[c], a.MaxC[c]-b.MinC[c])
		s += d * d
	}
	return s
}

// NodeSqDiameter returns the squared diagonal length of the node's box.
func NodeSqDiameter(nd *Node, dim int) float64 {
	s := 0.0
	for c := 0; c < dim; c++ {
		d := nd.MaxC[c] - nd.MinC[c]
		s += d * d
	}
	return s
}

// Height returns the height of the tree (1 for a single leaf).
func (t *Tree) Height() int {
	if len(t.Nodes) == 0 {
		return 0
	}
	var rec func(ni int32) int
	rec = func(ni int32) int {
		nd := &t.Nodes[ni]
		if nd.Left == 0 {
			return 1
		}
		l, r := rec(nd.Left), rec(nd.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return rec(0)
}
