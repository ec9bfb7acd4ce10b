package pargeo

import (
	"pargeo/internal/cluster"
	"pargeo/internal/geom"
)

// Dendrogram is a single-linkage merge tree (see internal/cluster).
type Dendrogram = cluster.Dendrogram

// SingleLinkage builds the exact single-linkage dendrogram via the EMST —
// the clustering pipeline §2 of the paper motivates for the WSPD/EMST
// modules.
func SingleLinkage(pts Points) Dendrogram { return cluster.SingleLinkage(pts) }

// HDBSCAN builds the HDBSCAN* hierarchy over the mutual-reachability
// distance with the given minPts.
func HDBSCAN(pts Points, minPts int) Dendrogram { return cluster.HDBSCAN(pts, minPts) }

// CoreDistances returns each point's distance to its minPts-th nearest
// neighbor (data-parallel).
func CoreDistances(pts Points, minPts int) []float64 {
	return cluster.CoreDistances(pts, minPts)
}

// BoundingBox computes the bounding box of all points.
func BoundingBox(pts Points) Box { return geom.BoundingBoxAll(pts) }
