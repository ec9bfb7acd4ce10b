package baseline

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/morton"
	"pargeo/internal/parlay"
)

// ZdTree is a simplified Zd-tree, the Morton-order batch-dynamic
// nearest-neighbor structure of Blelloch and Dobson that §6.3 of the
// ParGeo paper compares the BDL-tree against.
//
// It keeps the points sorted by Morton code over a fixed global
// quantization box. Like the original it supports batch insertion and
// deletion and k-NN queries, and like the original its construction is
// dominated by a (fast, parallel radix) Morton sort in low dimensions:
//
//   - batch insert: Morton-code the batch, radix-sort it, and merge the
//     two sorted arrays;
//   - batch delete: locate each victim by code binary search and
//     tombstone it; compaction happens when half the array is dead;
//   - k-NN: an implicit kd-tree over the sorted array is rebuilt after
//     each update (an O(n/leaf)-node pass) and searched like a kd-tree.
//
// Simplification vs. Blelloch & Dobson: the original updates the tree
// structure incrementally and in parallel, while this version re-derives
// the implicit hierarchy after each batch (the array merge itself is the
// same). This preserves the comparison the paper draws — construction and
// updates dominated by Morton sorting in 2–3 dimensions, with k-NN
// performance comparable to a kd-tree. The paper's caveat also applies:
// quantization to 64/d bits per dimension makes the approach attractive
// only in low dimensions.
type ZdTree struct {
	boxTree
	box    geom.Box  // global quantization box (fixed at NewZdTree)
	codes  []uint64  // sorted Morton codes
	coords []float64 // rows in code order
	gids   []int32   // one id per row; -1 marks a deleted row
	live   int
	nextID int32
}

// zdLeafSize is the row count below which the implicit hierarchy stops
// splitting.
const zdLeafSize = 16

// NewZdTree returns an empty Zd-tree whose Morton quantization covers box.
func NewZdTree(dim int, box geom.Box) *ZdTree {
	return &ZdTree{boxTree: boxTree{dim: dim}, box: box}
}

// Size returns the number of live points.
func (t *ZdTree) Size() int { return t.live }

// Insert adds a batch and returns its assigned ids.
func (t *ZdTree) Insert(batch geom.Points) []int32 {
	m := batch.Len()
	ids := nextIDs(&t.nextID, m)
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
	i, j := 0, 0
	for i < n || j < m {
		if j >= m || (i < n && t.codes[i] <= bc[j]) {
			outCodes = append(outCodes, t.codes[i])
			outCoords = append(outCoords, t.coords[i*t.dim:(i+1)*t.dim]...)
			outGids = append(outGids, t.gids[i])
			i++
		} else {
			src := int(ord[j])
			outCodes = append(outCodes, bc[j])
			outCoords = append(outCoords, batch.At(src)...)
			outGids = append(outGids, ids[src])
			j++
		}
	}
	t.codes, t.coords, t.gids = outCodes, outCoords, outGids
	t.live += m
	t.rebuildNodes()
	return ids
}

// Delete tombstones every live point exactly matching a batch coordinate;
// returns the number removed. Compacts when half the array is dead.
func (t *ZdTree) Delete(batch geom.Points) int {
	removed := 0
	for bi := 0; bi < batch.Len(); bi++ {
		p := batch.At(bi)
		code := morton.Encode(p, t.box)
		// All entries with this code are contiguous.
		lo := sort.Search(len(t.codes), func(i int) bool { return t.codes[i] >= code })
		for i := lo; i < len(t.codes) && t.codes[i] == code; i++ {
			if t.gids[i] >= 0 && slices.Equal(t.coords[i*t.dim:(i+1)*t.dim], p) {
				t.gids[i] = -1
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

func (t *ZdTree) compact() {
	outCodes := t.codes[:0]
	outGids := t.gids[:0]
	outCoords := t.coords[:0]
	for i, id := range t.gids {
		if id < 0 {
			continue
		}
		outCodes = append(outCodes, t.codes[i])
		outGids = append(outGids, id)
		outCoords = append(outCoords, t.coords[i*t.dim:(i+1)*t.dim]...)
	}
	t.codes, t.gids, t.coords = outCodes, outGids, outCoords
}

// rebuildNodes derives the implicit kd-hierarchy over the sorted array:
// recursively split the array at the highest Morton bit on which its first
// and last codes differ, so each child is one cell of the Morton quadtree
// and siblings are disjoint along that bit's axis, and compute bounding
// boxes bottom-up. A leaf's rows are views of the arrays, so a tombstone
// in gids is seen by the search.
func (t *ZdTree) rebuildNodes() {
	t.nodes, t.leaves = t.nodes[:0], t.leaves[:0]
	if len(t.codes) > 0 {
		t.buildNode(0, int32(len(t.codes)))
	}
}

func (t *ZdTree) buildNode(lo, hi int32) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdtree.Node{Lo: lo, Hi: hi})
	t.leaves = append(t.leaves, leaf{})
	if int(hi-lo) <= zdLeafSize {
		t.leaves[id] = leaf{t.coords[int(lo)*t.dim : int(hi)*t.dim], t.gids[lo:hi]}
		t.leafBox(&t.nodes[id])
		return id
	}
	mid := (lo + hi) / 2
	if x := t.codes[lo] ^ t.codes[hi-1]; x != 0 {
		// The codes in [lo, hi) share every bit above the highest set bit
		// of x, so those with that bit clear sort first.
		bit := uint64(1) << (63 - bits.LeadingZeros64(x))
		mid = lo + int32(sort.Search(int(hi-lo), func(i int) bool { return t.codes[lo+int32(i)]&bit != 0 }))
	}
	l := t.buildNode(lo, mid)
	r := t.buildNode(mid, hi)
	nd := &t.nodes[id]
	nd.Left, nd.Right = l, r
	for c := 0; c < t.dim; c++ {
		nd.MinC[c] = min(t.nodes[l].MinC[c], t.nodes[r].MinC[c])
		nd.MaxC[c] = max(t.nodes[l].MaxC[c], t.nodes[r].MaxC[c])
	}
	return id
}

// leafBox sets a leaf's box to its live rows' (inverted when none lives).
func (t *ZdTree) leafBox(nd *kdtree.Node) {
	for c := 0; c < t.dim; c++ {
		nd.MinC[c], nd.MaxC[c] = math.Inf(1), math.Inf(-1)
	}
	for i := nd.Lo; i < nd.Hi; i++ {
		if t.gids[i] < 0 {
			continue
		}
		for c := 0; c < t.dim; c++ {
			v := t.coords[int(i)*t.dim+c]
			nd.MinC[c] = min(nd.MinC[c], v)
			nd.MaxC[c] = max(nd.MaxC[c], v)
		}
	}
}

// KNN returns the k nearest live points' ids for each query row,
// data-parallel over queries.
func (t *ZdTree) KNN(queries geom.Points, k int, exclude []int32) [][]int32 {
	return knn(queries, k, exclude, t.knnInto)
}
