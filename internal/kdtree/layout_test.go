package kdtree

import (
	"fmt"
	"math"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
)

func boxAround(c []float64, w float64) geom.Box {
	b := geom.EmptyBox(len(c))
	lo := make([]float64, len(c))
	hi := make([]float64, len(c))
	for d := range c {
		lo[d], hi[d] = c[d]-w, c[d]+w
	}
	b.Expand(lo)
	b.Expand(hi)
	return b
}

// TestPreorderLayoutInvariant checks the flat arena's structural contract
// on every generator distribution (including the degenerate ones), both
// split rules, and both build modes: the root is slot 0, a node's left
// child is the next slot, the right child starts immediately after the left
// subtree (so every subtree occupies one contiguous, gap-free node range),
// the whole arena is exactly covered, children partition their parent's
// row range, and the leaf-coordinate cache mirrors the rows.
func TestPreorderLayoutInvariant(t *testing.T) {
	const n = 700
	for _, tc := range distCases {
		for _, dim := range []int{2, 3, 5} {
			for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
				for _, serial := range []bool{false, true} {
					label := fmt.Sprintf("%s/d%d/%v/serial=%v", tc.name, dim, split, serial)
					pts := tc.gen(n, dim, 5)
					tr := Build(pts, Options{Split: split, LeafSize: 8, Serial: serial})
					checkPreorder(t, tr, label)
				}
			}
		}
	}
	// Leaf size 1 (the EMST configuration) exercises the 2n-1 node shape.
	pts := generators.UniformCube(500, 2, 3)
	tr := Build(pts, Options{LeafSize: 1})
	if want := 2*500 - 1; len(tr.Nodes) != want {
		t.Fatalf("LeafSize=1: %d nodes, want %d", len(tr.Nodes), want)
	}
	checkPreorder(t, tr, "LeafSize=1")
}

func checkPreorder(t *testing.T, tr *Tree, label string) {
	t.Helper()
	if len(tr.Idx) == 0 {
		if len(tr.Nodes) != 0 {
			t.Fatalf("%s: empty tree with %d nodes", label, len(tr.Nodes))
		}
		return
	}
	var walk func(ni int32) int32 // returns the subtree's node count
	walk = func(ni int32) int32 {
		nd := &tr.Nodes[ni]
		if nd.Lo > nd.Hi {
			t.Fatalf("%s: node %d has inverted range [%d,%d)", label, ni, nd.Lo, nd.Hi)
		}
		if nd.IsLeaf() {
			if nd.Right != 0 {
				t.Fatalf("%s: leaf %d has right child %d", label, ni, nd.Right)
			}
			return 1
		}
		if nd.Left != ni+1 {
			t.Fatalf("%s: node %d left child at %d, want %d (preorder adjacency)",
				label, ni, nd.Left, ni+1)
		}
		lc := walk(nd.Left)
		if nd.Right != ni+1+lc {
			t.Fatalf("%s: node %d right child at %d, want %d (left subtree spans %d nodes)",
				label, ni, nd.Right, ni+1+lc, lc)
		}
		l, r := tr.Left(nd), tr.Right(nd)
		if l.Lo != nd.Lo || r.Hi != nd.Hi || l.Hi != r.Lo {
			t.Fatalf("%s: node %d children do not partition [%d,%d): [%d,%d)+[%d,%d)",
				label, ni, nd.Lo, nd.Hi, l.Lo, l.Hi, r.Lo, r.Hi)
		}
		return 1 + lc + walk(nd.Right)
	}
	if total := walk(0); total != int32(len(tr.Nodes)) {
		t.Fatalf("%s: reachable subtree has %d nodes, arena holds %d (gaps or orphans)",
			label, total, len(tr.Nodes))
	}
	root := tr.Root()
	if root.Lo != 0 || int(root.Hi) != len(tr.Idx) {
		t.Fatalf("%s: root range [%d,%d), want [0,%d)", label, root.Lo, root.Hi, len(tr.Idx))
	}
	// CoordsF32 mirrors the rows leaf by leaf in dimension-major order: leaf
	// [Lo,Hi) with m rows stores coordinate c of its i-th row at
	// CoordsF32[Lo*dim + c*m + i], rounded to float32.
	dim := tr.Pts.Dim
	var walkLeaves func(ni int32)
	walkLeaves = func(ni int32) {
		nd := &tr.Nodes[ni]
		if !nd.IsLeaf() {
			walkLeaves(nd.Left)
			walkLeaves(nd.Right)
			return
		}
		m := int(nd.Hi - nd.Lo)
		slab := tr.CoordsF32[int(nd.Lo)*dim : int(nd.Lo)*dim+m*dim]
		for i := 0; i < m; i++ {
			want := tr.Pts.At(int(nd.Lo) + i)
			for c := 0; c < dim; c++ {
				if got := slab[c*m+i]; got != float32(want[c]) {
					t.Fatalf("%s: leaf [%d,%d) slab[%d*%d+%d] = %v, want f32(%v)",
						label, nd.Lo, nd.Hi, c, m, i, got, want[c])
				}
			}
		}
	}
	walkLeaves(0)
}

// TestObjectNodeCountExact cross-checks the O(log m) level-walk node
// counter against the naive recursion for every size and several leaf
// capacities.
func TestObjectNodeCountExact(t *testing.T) {
	var naive func(m, leaf int32) int32
	naive = func(m, leaf int32) int32 {
		if m <= leaf {
			return 1
		}
		return 1 + naive(m/2, leaf) + naive(m-m/2, leaf)
	}
	for _, leaf := range []int32{1, 2, 3, 5, 16, 31} {
		for m := int32(1); m <= 3000; m++ {
			if got, want := objectNodeCount(m, leaf), naive(m, leaf); got != want {
				t.Fatalf("objectNodeCount(%d, %d) = %d, want %d", m, leaf, got, want)
			}
		}
	}
}

// TestAllKNNMatchesOracle runs the batched AllKNN against the brute-force
// oracle on every distribution, dimension set, and split rule: each row's
// distance signature must match the oracle exactly, including the sqDists
// output and the -1/+Inf padding.
func TestAllKNNMatchesOracle(t *testing.T) {
	const n = 300
	for _, tc := range distCases {
		for _, dim := range []int{2, 3, 5} {
			for _, split := range []SplitRule{ObjectMedian, SpatialMedian} {
				pts := tc.gen(n, dim, 9)
				tr := Build(pts, Options{Split: split})
				for _, k := range []int{1, 5, 16} {
					label := fmt.Sprintf("%s/d%d/%v/k%d", tc.name, dim, split, k)
					sq := make([]float64, n*k)
					ids := tr.AllKNN(k, sq)
					for p := 0; p < n; p++ {
						wantD := oracle.KNNDists(pts, pts.At(p), k, int32(p))
						row := ids[p*k : (p+1)*k]
						for j, want := range wantD {
							id := row[j]
							if id < 0 {
								t.Fatalf("%s/p%d: row ends at %d, oracle has %d", label, p, j, len(wantD))
							}
							got := geom.SqDist(pts.At(p), pts.At(int(id)))
							if got != want {
								t.Fatalf("%s/p%d: neighbor %d at sqdist %v, oracle %v", label, p, j, got, want)
							}
							if sq[p*k+j] != want {
								t.Fatalf("%s/p%d: sqDists[%d] = %v, oracle %v", label, p, j, sq[p*k+j], want)
							}
						}
						for j := len(wantD); j < k; j++ {
							if row[j] != -1 || !isInf(sq[p*k+j]) {
								t.Fatalf("%s/p%d: padding at %d is (%d, %v), want (-1, +Inf)",
									label, p, j, row[j], sq[p*k+j])
							}
						}
					}
				}
			}
		}
	}
}

func isInf(v float64) bool { return math.IsInf(v, 1) }

// TestAllKthSqDistMatchesOracle checks the O(n)-output batch k-th-distance
// pass (the core-distance substrate) against the oracle, including the
// +Inf convention when fewer than k neighbors exist.
func TestAllKthSqDistMatchesOracle(t *testing.T) {
	pts := generators.SeedSpreader(400, 3, 2)
	tr := Build(pts, Options{})
	for _, k := range []int{1, 4, 16} {
		got := tr.AllKthSqDist(k)
		for p := 0; p < pts.Len(); p++ {
			wantD := oracle.KNNDists(pts, pts.At(p), k, int32(p))
			want := math.Inf(1)
			if len(wantD) == k {
				want = wantD[k-1]
			}
			if got[p] != want {
				t.Fatalf("k=%d p=%d: got %v, oracle %v", k, p, got[p], want)
			}
		}
	}
	tiny := Build(generators.UniformCube(5, 2, 1), Options{})
	for _, d := range tiny.AllKthSqDist(8) {
		if !isInf(d) {
			t.Fatalf("5-point tree, k=8: got %v, want +Inf", d)
		}
	}
}
