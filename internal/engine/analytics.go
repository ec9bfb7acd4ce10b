package engine

import "math"

// Snapshot analytics: long-running, whole-dataset jobs that make sense
// precisely BECAUSE snapshots are immutable versions. Each job reads one
// consistent point set from start to finish while live writers keep
// committing past it — the intended idiom is
//
//	s := eng.Pin()
//	defer s.Release()
//	g := s.KNNGraph(k)
//
// so the version stays resolvable (and its memory accounted under
// Stats().RetainedBytes) for exactly the job's duration. The jobs are
// data-parallel over the points and answer every query with the
// self-excluding convention of the cluster package: a point is never its
// own neighbor.

// KNNGraph is a directed k-nearest-neighbor graph over one snapshot's live
// points: node i (global id IDs[i]) has edges to the k live points nearest
// to it, itself excluded.
type KNNGraph struct {
	// K is the requested out-degree.
	K int
	// IDs are the graph's nodes: every live global id, in snapshot
	// (shard-concatenated) order.
	IDs []int32
	// Neighbors is flat row-major: node i's edges are
	// Neighbors[i*K : (i+1)*K], global ids sorted by increasing distance,
	// padded with -1 when the snapshot holds fewer than K other points.
	Neighbors []int32
	// SqDists holds the matching squared edge lengths (+Inf padding),
	// parallel to Neighbors.
	SqDists []float64
}

// KNNGraph computes the directed k-NN graph of the snapshot's live points:
// for every point, its k nearest OTHER live points (the self-excluding
// convention of the cluster package, unlike AllKNN which answers arbitrary
// query rows and excludes nothing). One parallel pass; O(n·k) output. The
// result is wholly owned by the caller and stays valid after Release.
func (s *Snapshot) KNNGraph(k int) *KNNGraph {
	if k <= 0 {
		panic("engine: KNNGraph requires k >= 1")
	}
	pts, gids := s.Points()
	n := pts.Len()
	g := &KNNGraph{
		K:         k,
		IDs:       gids,
		Neighbors: make([]int32, n*k),
		SqDists:   make([]float64, n*k),
	}
	s.allKNN(pts, gids, k, g.Neighbors, g.SqDists)
	return g
}

// CoreDistances computes the HDBSCAN core distance of every live point: its
// distance (not squared) to its minPts-th nearest OTHER live point, +Inf for
// points with fewer than minPts live others — the same convention as
// cluster.CoreDistances, evaluated against a consistent pinned version
// instead of a static array. Returns the global ids in snapshot order and
// the parallel core distances.
func (s *Snapshot) CoreDistances(minPts int) ([]int32, []float64) {
	if minPts <= 0 {
		panic("engine: CoreDistances requires minPts >= 1")
	}
	pts, gids := s.Points()
	n := pts.Len()
	sq := make([]float64, n*minPts)
	s.allKNN(pts, gids, minPts, nil, sq)
	core := make([]float64, n)
	for i := range core {
		core[i] = math.Sqrt(sq[i*minPts+minPts-1])
	}
	return gids, core
}
