// Package pargeo is a multicore library for parallel computational
// geometry: a from-scratch Go reproduction of "ParGeo: A Library for
// Parallel Computational Geometry" (Wang, Yesantharao, Yu, Dhulipala, Gu,
// Shun; PPoPP 2022).
//
// The library mirrors ParGeo's four modules (Figure 1 of the paper):
//
//   - Static and batch-dynamic kd-trees: parallel construction with object
//     or spatial median splits, exact k-nearest-neighbor search, range
//     search, and the BDL-tree — a parallel batch-dynamic kd-tree built
//     from a logarithmic set of static trees (preorder-arena kd-trees).
//   - Computational geometry: convex hull in R² and R³ (including the
//     paper's reservation-based parallel incremental algorithms), smallest
//     enclosing ball (parallel Welzl, orthant scan, and the sampling
//     algorithm), well-separated pair decomposition, closest pair,
//     bichromatic closest pair, and Morton sorting.
//   - Spatial graph generators: k-NN graph, Delaunay graph, Gabriel graph,
//     β-skeleton, Euclidean minimum spanning tree, and WSPD t-spanners.
//   - Data generators: uniform, in-sphere, on-sphere, on-cube, clustered
//     seed-spreader and visual-variability distributions, plus synthetic
//     3D-scan surrogates.
//
// Points are stored in the flat structure-of-arrays Points buffer; all
// algorithms address points by index and parallelize through the
// work-stealing fork-join scheduler in internal/parlay, which honors
// GOMAXPROCS and degrades to sequential execution on one processor.
//
// Beyond the paper's modules, the library serves its trees: Engine is a
// concurrent, shardable, optionally durable spatial query service with
// snapshot isolation, MVCC retention (time-travel reads, pinned-snapshot
// analytics), and a network layer (cmd/pargeo-serve and the client
// package). docs/ARCHITECTURE.md at the repository root is the map of
// how those layers stack and the invariants that hold them together.
package pargeo

import (
	"pargeo/internal/bdltree"
	"pargeo/internal/closestpair"
	"pargeo/internal/delaunay"
	"pargeo/internal/emst"
	"pargeo/internal/engine"
	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/graphgen"
	"pargeo/internal/hull2d"
	"pargeo/internal/hull3d"
	"pargeo/internal/kdtree"
	"pargeo/internal/morton"
	"pargeo/internal/seb"
	"pargeo/internal/wspd"
)

// Points is a flat structure-of-arrays buffer of n points in R^d.
type Points = geom.Points

// NewPoints allocates storage for n d-dimensional points.
func NewPoints(n, dim int) Points { return geom.NewPoints(n, dim) }

// Box is an axis-aligned box in R^d.
type Box = geom.Box

// --- data generators (Module 4) -----------------------------------------

// Uniform generates n points uniformly in a hypercube of side sqrt(n).
func Uniform(n, dim int, seed uint64) Points { return generators.UniformCube(n, dim, seed) }

// InSphere generates n points uniformly in a ball of radius sqrt(n)/2.
func InSphere(n, dim int, seed uint64) Points { return generators.InSphere(n, dim, seed) }

// OnSphere generates n points on a sphere shell of relative thickness 0.1.
func OnSphere(n, dim int, seed uint64) Points { return generators.OnSphere(n, dim, seed) }

// OnCube generates n points on a hypercube surface shell.
func OnCube(n, dim int, seed uint64) Points { return generators.OnCube(n, dim, seed) }

// SeedSpreader generates clustered points of varying density.
func SeedSpreader(n, dim int, seed uint64) Points { return generators.SeedSpreader(n, dim, seed) }

// VisualVar generates the 2D variable-density clustered distribution.
func VisualVar(n int, seed uint64) Points { return generators.VisualVar(n, seed) }

// Statue generates the synthetic 3D-scan surrogate for the Thai statue.
func Statue(n int, seed uint64) Points { return generators.Statue(n, seed) }

// Dragon generates the synthetic 3D-scan surrogate for the Dragon.
func Dragon(n int, seed uint64) Points { return generators.Dragon(n, seed) }

// --- kd-tree (Module 1) ---------------------------------------------------

// KDTree is a static parallel kd-tree.
type KDTree = kdtree.Tree

// SplitRule selects the kd-tree splitting heuristic.
type SplitRule = kdtree.SplitRule

// Split rules.
const (
	ObjectMedian  = kdtree.ObjectMedian
	SpatialMedian = kdtree.SpatialMedian
)

// BuildKDTree constructs a kd-tree over pts in parallel.
func BuildKDTree(pts Points, split SplitRule) *KDTree {
	return kdtree.Build(pts, kdtree.Options{Split: split})
}

// KNN returns the k nearest neighbors of each query point index,
// data-parallel. It panics when k < 1.
func KNN(t *KDTree, queries []int32, k int) [][]int32 { return t.KNN(queries, k) }

// RangeSearch returns all point indices inside the box.
func RangeSearch(t *KDTree, box Box) []int32 { return t.RangeSearch(box) }

// --- BDL-tree (batch-dynamic kd-tree, §5) ---------------------------------

// BDLTree is the parallel batch-dynamic kd-tree.
type BDLTree = bdltree.Tree

// BDLOptions configure a BDL-tree.
type BDLOptions = bdltree.Options

// NewBDLTree returns an empty BDL-tree for dim-dimensional points.
func NewBDLTree(dim int, opts BDLOptions) *BDLTree { return bdltree.New(dim, opts) }

// --- concurrent query engine (serving path) --------------------------------

// Engine is a concurrent spatial query service over Morton-sharded
// BDL-trees: any number of goroutines may issue KNN / RangeSearch /
// RangeCount queries and batched updates concurrently. Queries always
// observe a fully committed snapshot (epoch/pointer-swap protocol),
// concurrent small updates coalesce per shard — disjoint-shard batches
// commit truly in parallel, multi-shard batches publish all-or-nothing via
// a two-phase swap — and each query runs on its caller's goroutine,
// fanning out over the shards it cannot prune. With
// EngineOptions.Rebalance the shard partition additionally tracks the
// live load online (hot-shard splits, cold merges, drift-triggered
// repartitions under a widened world). See internal/engine for the
// protocol.
type Engine = engine.Engine

// EngineOptions configure an Engine. Set Shards (e.g. to AutoShards) to
// partition space into independent Morton-range shards whose updates
// commit in parallel; zero runs unsharded. Set Rebalance to keep the
// partition tracking the live load online: a background goroutine splits
// write-hot shards at the weighted median code of their recent writes,
// merges cold neighbors, and rebuilds the partition under a widened world
// box when inserts drift beyond the founding extent — all published
// atomically, so queries never see a torn migration. Call Engine.Close to
// stop the background rebalancer.
type EngineOptions = engine.Options

// RebalanceAction reports what an Engine.Rebalance pass did (see
// RebalanceNone, RebalanceSplitMerge, RebalanceRepartition).
type RebalanceAction = engine.RebalanceAction

// Rebalance pass outcomes.
const (
	RebalanceNone        = engine.RebalanceNone
	RebalanceSplitMerge  = engine.RebalanceSplitMerge
	RebalanceRepartition = engine.RebalanceRepartition
)

// AutoShards, as EngineOptions.Shards, selects one shard per GOMAXPROCS
// worker at engine creation.
const AutoShards = engine.AutoShards

// EngineSnapshot is an immutable committed version of an Engine's point
// set; query it directly for multi-query consistency. With
// EngineOptions.RetainEpochs set, Engine.AsOf returns the snapshot of any
// recent epoch (time travel), and Engine.Pin / EngineSnapshot.Release
// bracket long-running analytics — KNNGraph, CoreDistances, AllKNN — over
// one consistent version while live writers keep committing.
type EngineSnapshot = engine.Snapshot

// UpdateResult reports a committed Engine update. Check Err on durable
// engines: it is ErrEngineClosed for updates submitted after Close, or a
// write-ahead-log error when durability could not be guaranteed.
type UpdateResult = engine.UpdateResult

// Durability configures an Engine's write-ahead log and checkpointing
// (EngineOptions.Durability): committed batches are appended to a
// segmented CRC-framed WAL before they are published, checkpoints
// capture the full state and truncate dead log segments, and OpenEngine
// recovers everything acknowledged before a crash. SyncEvery=1 (the
// default) acknowledges only after fsync; SyncEvery=K>1 trades the last
// ≤K-1 batches on power loss for commit throughput.
type Durability = engine.Durability

// ErrEngineClosed is reported (via UpdateResult.Err) for updates
// submitted to a durable Engine after Close.
var ErrEngineClosed = engine.ErrClosed

// ErrEpochNotRetained is the errors.Is target for Engine.AsOf and
// Engine.PinEpoch calls naming an epoch outside the retention window
// (EngineOptions.RetainEpochs) that is not pinned either.
var ErrEpochNotRetained = engine.ErrEpochNotRetained

// NewEngine returns a concurrent query engine serving dim-dimensional
// points, starting from an empty epoch-0 snapshot.
func NewEngine(dim int, opts EngineOptions) *Engine { return engine.New(dim, opts) }

// OpenEngine opens a durable engine rooted at dir: it recovers the
// state a previous process made durable there (latest valid checkpoint
// plus write-ahead-log replay, discarding any torn tail), then serves
// and logs new updates. A fresh directory starts empty. Close the
// engine to flush and release the log; opts.Durability, if non-nil,
// supplies tuning (its Dir is overridden by dir).
func OpenEngine(dir string, dim int, opts EngineOptions) (*Engine, error) {
	d := Durability{}
	if opts.Durability != nil {
		d = *opts.Durability
	}
	d.Dir = dir
	opts.Durability = &d
	return engine.Open(dim, opts)
}

// --- convex hull (§3) -----------------------------------------------------

// Hull2DAlgorithm selects a 2D convex hull implementation.
type Hull2DAlgorithm int

// 2D hull algorithms (§6.1's comparison set).
const (
	Hull2DMonotoneChain Hull2DAlgorithm = iota // sequential baseline
	Hull2DSeqQuickhull                         // sequential quickhull baseline
	Hull2DQuickhull                            // parallel recursive quickhull
	Hull2DRandInc                              // reservation-based randomized incremental
	Hull2DDivideConquer                        // block divide-and-conquer (fastest)
)

// ConvexHull2D returns the hull vertex indices in counterclockwise order.
func ConvexHull2D(pts Points, alg Hull2DAlgorithm) []int32 {
	switch alg {
	case Hull2DMonotoneChain:
		return hull2d.MonotoneChain(pts)
	case Hull2DSeqQuickhull:
		return hull2d.SequentialQuickhull(pts)
	case Hull2DQuickhull:
		return hull2d.Quickhull(pts)
	case Hull2DRandInc:
		return hull2d.RandInc(pts, 1)
	default:
		return hull2d.DivideConquer(pts)
	}
}

// Hull3DAlgorithm selects a 3D convex hull implementation.
type Hull3DAlgorithm int

// 3D hull algorithms (§6.1's comparison set).
const (
	Hull3DSeqQuickhull  Hull3DAlgorithm = iota // sequential quickhull baseline
	Hull3DSeqRandInc                           // sequential incremental baseline
	Hull3DQuickhull                            // reservation-based parallel quickhull
	Hull3DRandInc                              // reservation-based randomized incremental
	Hull3DPseudo                               // pseudohull culling + parallel quickhull
	Hull3DDivideConquer                        // block divide-and-conquer
)

// ConvexHull3D returns the hull facets as CCW vertex triples (nil for
// degenerate inputs with no 3D hull).
func ConvexHull3D(pts Points, alg Hull3DAlgorithm) [][3]int32 {
	switch alg {
	case Hull3DSeqQuickhull:
		return hull3d.SequentialQuickhull(pts)
	case Hull3DSeqRandInc:
		return hull3d.SequentialRandInc(pts, 1)
	case Hull3DQuickhull:
		return hull3d.Quickhull(pts)
	case Hull3DRandInc:
		return hull3d.RandInc(pts, 1)
	case Hull3DPseudo:
		return hull3d.Pseudo(pts)
	default:
		return hull3d.DivideConquer(pts)
	}
}

// HullVertices returns the sorted unique vertex ids of a 3D hull.
func HullVertices(facets [][3]int32) []int32 { return hull3d.Vertices(facets) }

// --- smallest enclosing ball (§4) ------------------------------------------

// Ball is a d-dimensional ball.
type Ball = seb.Ball

// SEBAlgorithm selects a smallest-enclosing-ball implementation.
type SEBAlgorithm int

// SEB algorithms (§6.2's comparison set).
const (
	SEBWelzlSeq      SEBAlgorithm = iota // sequential Welzl baseline
	SEBWelzl                             // parallel Welzl
	SEBWelzlMtf                          // + move-to-front
	SEBWelzlMtfPivot                     // + pivoting
	SEBScan                              // parallel orthant scan
	SEBSampling                          // sampling + orthant scan (fastest)
)

// SmallestEnclosingBall computes the exact smallest enclosing ball.
func SmallestEnclosingBall(pts Points, alg SEBAlgorithm) Ball {
	switch alg {
	case SEBWelzlSeq:
		return seb.WelzlSequential(pts, 1, seb.Heuristics{MTF: true})
	case SEBWelzl:
		return seb.Welzl(pts, 1, seb.Heuristics{})
	case SEBWelzlMtf:
		return seb.Welzl(pts, 1, seb.Heuristics{MTF: true})
	case SEBWelzlMtfPivot:
		return seb.Welzl(pts, 1, seb.Heuristics{MTF: true, Pivot: true})
	case SEBScan:
		return seb.OrthantScan(pts)
	default:
		return seb.Sampling(pts, 1)
	}
}

// --- WSPD / EMST / closest pair (Module 2) ---------------------------------

// WSPDPair is one well-separated node pair.
type WSPDPair = wspd.Pair

// WSPD computes the well-separated pair decomposition with separation s.
func WSPD(t *KDTree, s float64) []WSPDPair { return wspd.Compute(t, s) }

// EMSTEdge is a weighted Euclidean MST edge.
type EMSTEdge = emst.Edge

// EMST computes the exact Euclidean minimum spanning tree.
func EMST(pts Points) []EMSTEdge { return emst.Compute(pts) }

// PairResult is a closest-pair result.
type PairResult = closestpair.Result

// ClosestPair returns the closest pair of distinct points.
func ClosestPair(pts Points) PairResult { return closestpair.ClosestPair(pts) }

// BichromaticClosestPair returns the nearest red/blue pair.
func BichromaticClosestPair(red, blue Points) PairResult {
	return closestpair.Bichromatic(red, blue)
}

// MortonSort returns the point indices in Morton (Z-curve) order.
func MortonSort(pts Points) []int32 { return morton.Sort(pts) }

// --- spatial graph generators (Module 3) -----------------------------------

// GraphEdge is an undirected spatial-graph edge.
type GraphEdge = graphgen.Edge

// KNNGraph returns each point's k nearest neighbors (directed adjacency).
func KNNGraph(pts Points, k int) [][]int32 { return graphgen.KNNGraph(pts, k) }

// DelaunayGraph returns the Delaunay graph edges (2D).
func DelaunayGraph(pts Points) []GraphEdge { return graphgen.DelaunayGraph(pts, 1) }

// GabrielGraph returns the Gabriel graph edges (2D).
func GabrielGraph(pts Points) []GraphEdge { return graphgen.GabrielGraph(pts, 1) }

// BetaSkeleton returns the lune-based β-skeleton edges for β >= 1 (2D).
func BetaSkeleton(pts Points, beta float64) []GraphEdge {
	return graphgen.BetaSkeleton(pts, beta, 1)
}

// Spanner returns a WSPD-based t-spanner with t = (s+4)/(s-4), s > 4.
func Spanner(pts Points, s float64) []GraphEdge { return graphgen.Spanner(pts, s) }

// DelaunayTriangles returns the 2D Delaunay triangulation's triangles.
func DelaunayTriangles(pts Points) [][3]int32 {
	return delaunay.Parallel(pts, 1).Triangles()
}
