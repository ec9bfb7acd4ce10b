// Package zdtree provides a simplified Zd-tree — the Morton-order-based
// batch-dynamic nearest-neighbor structure of Blelloch and Dobson that
// §6.3 of the ParGeo paper compares the BDL-tree against. It exists here
// so the paper's final comparison can be regenerated from this repository
// alone.
//
// The structure keeps the points sorted by Morton code over a fixed global
// quantization box. Like the original it supports batch insertion and
// deletion and k-NN queries, and like the original its construction is
// dominated by a (fast, parallel radix) Morton sort in low dimensions:
//
//   - batch insert: Morton-code the batch, radix-sort it, and merge the
//     two sorted arrays (parallel);
//   - batch delete: locate each victim by code binary search and
//     tombstone it; compaction happens when half the array is dead;
//   - k-NN: an implicit kd-tree over the sorted array is rebuilt lazily
//     after each update (an O(n/leaf)-node pass) and queried like a
//     regular kd-tree.
//
// Simplification vs. Blelloch & Dobson: the original updates the tree
// *structure* incrementally and in parallel, while this version re-derives
// the implicit hierarchy after each batch (the array merge itself is the
// same). This preserves the comparison the paper draws — construction and
// updates dominated by highly-optimized Morton sorting in 2–3 dimensions,
// with k-NN performance comparable to a kd-tree — while staying compact.
// The paper's caveat also applies: quantization to 64/d bits per dimension
// makes the approach attractive only in low dimensions.
package zdtree

import (
	"math"
	"sort"

	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/kernel"
	"pargeo/internal/morton"
	"pargeo/internal/parlay"
)

// Tree is a simplified Zd-tree over points in a fixed bounding box.
type Tree struct {
	dim    int
	box    geom.Box // global quantization box (fixed at New)
	codes  []uint64 // sorted Morton codes
	coords []float64
	gids   []int32
	dead   []bool
	live   int
	nextID int32
	nodes  []znode // implicit hierarchy over the array
	leaf   int
}

type znode struct {
	minC, maxC  [kdtree.MaxDim]float64
	lo, hi      int32
	left, right int32 // -1 for leaf
}

// New returns an empty tree whose Morton quantization covers box.
func New(dim int, box geom.Box) *Tree {
	return &Tree{dim: dim, box: box, leaf: 16}
}

// Size returns the number of live points.
func (t *Tree) Size() int { return t.live }

// Insert adds a batch and returns its assigned ids.
func (t *Tree) Insert(batch geom.Points) []int32 {
	m := batch.Len()
	ids := make([]int32, m)
	for i := range ids {
		ids[i] = t.nextID
		t.nextID++
	}
	// Code + sort the batch.
	bc := make([]uint64, m)
	ord := make([]int32, m)
	parlay.For(m, 512, func(i int) {
		bc[i] = morton.Encode(batch.At(i), t.box)
		ord[i] = int32(i)
	})
	parlay.SortPairs(bc, ord)
	// Merge into the existing sorted arrays.
	n := len(t.codes)
	outCodes := make([]uint64, 0, n+m)
	outCoords := make([]float64, 0, (n+m)*t.dim)
	outGids := make([]int32, 0, n+m)
	outDead := make([]bool, 0, n+m)
	i, j := 0, 0
	for i < n || j < m {
		takeOld := j >= m || (i < n && t.codes[i] <= bc[j])
		if takeOld {
			outCodes = append(outCodes, t.codes[i])
			outCoords = append(outCoords, t.coords[i*t.dim:(i+1)*t.dim]...)
			outGids = append(outGids, t.gids[i])
			outDead = append(outDead, t.dead[i])
			i++
		} else {
			src := int(ord[j])
			outCodes = append(outCodes, bc[j])
			outCoords = append(outCoords, batch.At(src)...)
			outGids = append(outGids, ids[src])
			outDead = append(outDead, false)
			j++
		}
	}
	t.codes, t.coords, t.gids, t.dead = outCodes, outCoords, outGids, outDead
	t.live += m
	t.rebuildNodes()
	return ids
}

// Delete tombstones every live point exactly matching a batch coordinate;
// returns the number removed. Compacts when half the array is dead.
func (t *Tree) Delete(batch geom.Points) int {
	removed := 0
	for bi := 0; bi < batch.Len(); bi++ {
		p := batch.At(bi)
		code := morton.Encode(p, t.box)
		// All entries with this code are contiguous.
		lo := sort.Search(len(t.codes), func(i int) bool { return t.codes[i] >= code })
		for i := lo; i < len(t.codes) && t.codes[i] == code; i++ {
			if t.dead[i] {
				continue
			}
			match := true
			for c := 0; c < t.dim; c++ {
				if t.coords[i*t.dim+c] != p[c] {
					match = false
					break
				}
			}
			if match {
				t.dead[i] = true
				removed++
			}
		}
	}
	t.live -= removed
	if t.live < len(t.codes)/2 {
		t.compact()
	}
	t.rebuildNodes()
	return removed
}

func (t *Tree) compact() {
	n := len(t.codes)
	outCodes := t.codes[:0]
	outGids := t.gids[:0]
	outCoords := t.coords[:0]
	k := 0
	for i := 0; i < n; i++ {
		if t.dead[i] {
			continue
		}
		outCodes = append(outCodes, t.codes[i])
		outGids = append(outGids, t.gids[i])
		outCoords = append(outCoords, t.coords[i*t.dim:(i+1)*t.dim]...)
		k++
	}
	t.codes, t.gids, t.coords = outCodes, outGids, outCoords
	t.dead = make([]bool, k)
}

// rebuildNodes derives the implicit kd-hierarchy over the sorted array:
// recursively halve the array (Morton order means each half is spatially
// coherent), computing bounding boxes bottom-up.
func (t *Tree) rebuildNodes() {
	t.nodes = t.nodes[:0]
	if len(t.codes) == 0 {
		return
	}
	t.buildNode(0, int32(len(t.codes)))
}

func (t *Tree) buildNode(lo, hi int32) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, znode{lo: lo, hi: hi, left: -1, right: -1})
	if int(hi-lo) <= t.leaf {
		nd := &t.nodes[id]
		t.leafBox(nd)
		return id
	}
	mid := (lo + hi) / 2
	l := t.buildNode(lo, mid)
	r := t.buildNode(mid, hi)
	nd := &t.nodes[id]
	nd.left, nd.right = l, r
	for c := 0; c < t.dim; c++ {
		nd.minC[c] = math.Min(t.nodes[l].minC[c], t.nodes[r].minC[c])
		nd.maxC[c] = math.Max(t.nodes[l].maxC[c], t.nodes[r].maxC[c])
	}
	return id
}

func (t *Tree) leafBox(nd *znode) {
	for c := 0; c < t.dim; c++ {
		nd.minC[c], nd.maxC[c] = math.Inf(1), math.Inf(-1)
	}
	for i := nd.lo; i < nd.hi; i++ {
		if t.dead[i] {
			continue
		}
		for c := 0; c < t.dim; c++ {
			v := t.coords[int(i)*t.dim+c]
			if v < nd.minC[c] {
				nd.minC[c] = v
			}
			if v > nd.maxC[c] {
				nd.maxC[c] = v
			}
		}
	}
}

// KNN returns the k nearest live points' ids for each query row,
// data-parallel over queries.
func (t *Tree) KNN(queries geom.Points, k int, exclude []int32) [][]int32 {
	kdtree.CheckK(k)
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
			if len(t.nodes) > 0 {
				t.knnNode(0, queries.At(i), ex, buf)
			}
			out[i] = buf.Result(nil)
		}
	})
	return out
}

func (t *Tree) knnNode(id int32, q []float64, exclude int32, buf *kdtree.KNNBuffer) {
	nd := &t.nodes[id]
	if nd.left < 0 {
		for i := nd.lo; i < nd.hi; i++ {
			if t.dead[i] || t.gids[i] == exclude {
				continue
			}
			buf.Insert(t.gids[i], geom.SqDist(q, t.coords[int(i)*t.dim:int(i+1)*t.dim]))
		}
		return
	}
	l, r := &t.nodes[nd.left], &t.nodes[nd.right]
	dl := kernel.MinSqDistToBox(q, l.minC[:t.dim], l.maxC[:t.dim])
	dr := kernel.MinSqDistToBox(q, r.minC[:t.dim], r.maxC[:t.dim])
	near, far, dfar := nd.left, nd.right, dr
	if dr < dl {
		near, far, dfar = nd.right, nd.left, dl
	}
	t.knnNode(near, q, exclude, buf)
	if !buf.Full() || dfar < buf.Bound() {
		t.knnNode(far, q, exclude, buf)
	}
}
