package bdltree

import (
	"math"
	"slices"

	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/kernel"
	"pargeo/internal/parlay"
)

var inf = math.Inf(1)

func f64bits(v float64) uint64 { return math.Float64bits(v) }

// Dynamic is the batch-dynamic interface shared by the BDL-tree and the two
// baselines, so the benchmarks (Fig. 11, Fig. 14) drive all three
// uniformly.
type Dynamic interface {
	Insert(batch geom.Points) []int32
	Delete(batch geom.Points) int
	KNN(queries geom.Points, k int, exclude []int32) [][]int32
	Size() int
}

var (
	_ Dynamic = (*Tree)(nil)
	_ Dynamic = (*B1)(nil)
	_ Dynamic = (*B2)(nil)
)

// B1 is the first baseline of §6.3: a single kd-tree fully rebuilt on every
// batch insertion or deletion. Queries are fast (the tree is always
// perfectly balanced); updates are expensive.
type B1 struct {
	dim    int
	split  SplitRule
	coords []float64
	gids   []int32
	tree   *level
	nextID int32
}

// NewB1 returns an empty rebuild-always baseline tree.
func NewB1(dim int, split SplitRule) *B1 {
	return &B1{dim: dim, split: split}
}

// Size returns the number of live points.
func (b *B1) Size() int { return len(b.gids) }

func (b *B1) rebuild() {
	b.tree = newLevel(geom.Points{Data: b.coords, Dim: b.dim}, b.gids, b.split)
}

// Insert appends the batch and rebuilds the tree.
func (b *B1) Insert(batch geom.Points) []int32 {
	ids := make([]int32, batch.Len())
	for i := range ids {
		ids[i] = b.nextID
		b.nextID++
	}
	b.coords = append(b.coords, batch.Data...)
	b.gids = append(b.gids, ids...)
	b.rebuild()
	return ids
}

// Delete removes every live point matching a batch coordinate and rebuilds.
func (b *B1) Delete(batch geom.Points) int {
	key := func(p []float64) string { return coordKey(p) }
	del := make(map[string]bool, batch.Len())
	for i := 0; i < batch.Len(); i++ {
		del[key(batch.At(i))] = true
	}
	n := len(b.gids)
	keep := parlay.PackIndex(n, func(i int) bool {
		return !del[key(b.coords[i*b.dim:(i+1)*b.dim])]
	})
	removed := n - len(keep)
	if removed == 0 {
		return 0
	}
	newCoords := make([]float64, 0, len(keep)*b.dim)
	newIDs := make([]int32, 0, len(keep))
	for _, i := range keep {
		newCoords = append(newCoords, b.coords[int(i)*b.dim:(int(i)+1)*b.dim]...)
		newIDs = append(newIDs, b.gids[i])
	}
	b.coords, b.gids = newCoords, newIDs
	b.rebuild()
	return removed
}

// KNN answers queries data-parallel on the single balanced tree.
func (b *B1) KNN(queries geom.Points, k int, exclude []int32) [][]int32 {
	n := queries.Len()
	out := make([][]int32, n)
	parlay.ForBlocked(n, 32, func(lo, hi int) {
		buf := kdtree.NewKNNBuffer(k)
		for i := lo; i < hi; i++ {
			buf.Reset()
			ex := int32(-1)
			if exclude != nil {
				ex = exclude[i]
			}
			b.tree.knnInto(queries.At(i), ex, buf)
			out[i] = buf.Result(nil)
		}
	})
	return out
}

func coordKey(p []float64) string {
	buf := make([]byte, 0, len(p)*8)
	for _, v := range p {
		bits := uint64(0)
		// Normalize -0 to +0 so equal coordinates compare equal.
		if v != 0 {
			bits = f64bits(v)
		}
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(bits>>s))
		}
	}
	return string(buf)
}

// B2 is the second baseline of §6.3: points are inserted directly into the
// existing spatial structure (leaf buffers) without recomputing any splits,
// and deletions tombstone points in place. Updates are nearly free; the
// tree can become arbitrarily unbalanced (Fig. 14 / Appendix D).
type B2 struct {
	dim    int
	split  SplitRule
	root   *b2node
	nextID int32
	size   int
}

type b2node struct {
	minC, maxC  [kdtree.MaxDim]float64
	splitVal    float64
	splitDim    int8
	left, right *b2node
	coords      []float64 // leaf points (SoA rows)
	gids        []int32
	dead        []bool
	liveN       int
}

// b2LeafCap is the initial leaf capacity; leaves grow beyond it on insert
// (the "separate memory buffer at each leaf node" of §6.3).
const b2LeafCap = 16

// NewB2 returns an empty insert-in-place baseline tree.
func NewB2(dim int, split SplitRule) *B2 {
	return &B2{dim: dim, split: split}
}

// Size returns the number of live points.
func (b *B2) Size() int { return b.size }

// Insert routes each point to its leaf and appends it there. The first
// batch builds the initial structure.
func (b *B2) Insert(batch geom.Points) []int32 {
	ids := make([]int32, batch.Len())
	for i := range ids {
		ids[i] = b.nextID
		b.nextID++
	}
	b.size += batch.Len()
	if b.root == nil {
		idx := make([]int32, batch.Len())
		for i := range idx {
			idx[i] = int32(i)
		}
		b.root = b.buildNode(batch, ids, idx, true)
		return ids
	}
	for i := 0; i < batch.Len(); i++ {
		b.insertOne(batch.At(i), ids[i])
	}
	return ids
}

func (b *B2) buildNode(pts geom.Points, gids []int32, idx []int32, par bool) *b2node {
	nd := &b2node{}
	dim := b.dim
	for c := 0; c < dim; c++ {
		nd.minC[c], nd.maxC[c] = inf, -inf
	}
	for _, i := range idx {
		p := pts.At(int(i))
		for c := 0; c < dim; c++ {
			if p[c] < nd.minC[c] {
				nd.minC[c] = p[c]
			}
			if p[c] > nd.maxC[c] {
				nd.maxC[c] = p[c]
			}
		}
	}
	if len(idx) <= b2LeafCap {
		nd.coords = make([]float64, 0, (len(idx)+b2LeafCap)*dim)
		nd.gids = make([]int32, 0, len(idx)+b2LeafCap)
		for _, i := range idx {
			nd.coords = append(nd.coords, pts.At(int(i))...)
			nd.gids = append(nd.gids, gids[i])
			nd.dead = append(nd.dead, false)
		}
		nd.liveN = len(idx)
		return nd
	}
	c := 0
	bw := nd.maxC[0] - nd.minC[0]
	for d := 1; d < dim; d++ {
		if w := nd.maxC[d] - nd.minC[d]; w > bw {
			c, bw = d, w
		}
	}
	var mid int
	if b.split == SpatialMedian {
		val := (nd.minC[c] + nd.maxC[c]) / 2
		mid = kdtree.PartitionVal(pts, idx, c, val)
		if mid == 0 || mid == len(idx) {
			mid = len(idx) / 2
			kdtree.NthElement(pts, idx, mid, c)
		}
		nd.splitVal = val
	} else {
		mid = len(idx) / 2
		kdtree.NthElement(pts, idx, mid, c)
		nd.splitVal = pts.Coord(int(idx[mid]), c)
	}
	nd.splitDim = int8(c)
	if par && len(idx) > 8192 {
		parlay.Do(
			func() { nd.left = b.buildNode(pts, gids, idx[:mid], true) },
			func() { nd.right = b.buildNode(pts, gids, idx[mid:], true) },
		)
	} else {
		nd.left = b.buildNode(pts, gids, idx[:mid], false)
		nd.right = b.buildNode(pts, gids, idx[mid:], false)
	}
	return nd
}

func (b *B2) insertOne(p []float64, gid int32) {
	nd := b.root
	for {
		// Expand bounding boxes along the path.
		for c := 0; c < b.dim; c++ {
			if p[c] < nd.minC[c] {
				nd.minC[c] = p[c]
			}
			if p[c] > nd.maxC[c] {
				nd.maxC[c] = p[c]
			}
		}
		if nd.left == nil {
			nd.coords = append(nd.coords, p...)
			nd.gids = append(nd.gids, gid)
			nd.dead = append(nd.dead, false)
			nd.liveN++
			return
		}
		if p[nd.splitDim] < nd.splitVal {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
}

// Delete tombstones matching points in place (§6.3: "it does almost no work
// other than tombstoning the deleted points").
func (b *B2) Delete(batch geom.Points) int {
	removed := 0
	for i := 0; i < batch.Len(); i++ {
		removed += b.deleteOne(b.root, batch.At(i))
	}
	b.size -= removed
	return removed
}

func (b *B2) deleteOne(nd *b2node, p []float64) int {
	if nd == nil {
		return 0
	}
	for c := 0; c < b.dim; c++ {
		if p[c] < nd.minC[c] || p[c] > nd.maxC[c] {
			return 0
		}
	}
	if nd.left == nil {
		removed := 0
		for i := range nd.gids {
			if nd.dead[i] {
				continue
			}
			if slices.Equal(nd.coords[i*b.dim:(i+1)*b.dim], p) {
				nd.dead[i] = true
				nd.liveN--
				removed++
			}
		}
		return removed
	}
	return b.deleteOne(nd.left, p) + b.deleteOne(nd.right, p)
}

// KNN answers queries data-parallel on the in-place structure.
func (b *B2) KNN(queries geom.Points, k int, exclude []int32) [][]int32 {
	n := queries.Len()
	out := make([][]int32, n)
	parlay.ForBlocked(n, 32, func(lo, hi int) {
		buf := kdtree.NewKNNBuffer(k)
		for i := lo; i < hi; i++ {
			buf.Reset()
			ex := int32(-1)
			if exclude != nil {
				ex = exclude[i]
			}
			b.knnNode(b.root, queries.At(i), ex, buf)
			out[i] = buf.Result(nil)
		}
	})
	return out
}

func (b *B2) knnNode(nd *b2node, q []float64, exclude int32, buf *kdtree.KNNBuffer) {
	if nd == nil {
		return
	}
	if nd.left == nil {
		for i := range nd.gids {
			if nd.dead[i] || nd.gids[i] == exclude {
				continue
			}
			buf.Insert(nd.gids[i], geom.SqDist(q, nd.coords[i*b.dim:(i+1)*b.dim]))
		}
		return
	}
	near, far := nd.left, nd.right
	if q[nd.splitDim] >= nd.splitVal {
		near, far = far, near
	}
	b.knnNode(near, q, exclude, buf)
	if !buf.Full() || kernel.MinSqDistToBox(q, far.minC[:b.dim], far.maxC[:b.dim]) < buf.Bound() {
		b.knnNode(far, q, exclude, buf)
	}
}
