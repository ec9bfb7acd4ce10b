// Package seb implements the paper's smallest-enclosing-ball suite (§4,
// Fig. 10):
//
//   - WelzlSequential — Welzl's classic randomized incremental algorithm
//     (the optimized sequential baseline, the role CGAL plays in Fig. 10),
//     with optional move-to-front and Gärtner pivoting heuristics;
//   - Welzl / WelzlMtf / WelzlMtfPivot — the first parallel implementation
//     of Welzl's algorithm (after Blelloch et al.): the earliest violator
//     in the remaining input is found with a parallel prefix-doubling
//     search, small prefixes are processed sequentially;
//   - OrthantScan — Larsson et al.'s iterative orthant scan, parallelized
//     over input blocks;
//   - Sampling — the paper's new sampling-based algorithm (Fig. 6), which
//     bootstraps the orthant scan with constant-size random samples, drawn
//     on the fly, so the full input is scanned only a small number of
//     times.
//
// Both scan-based algorithms read the input in place. Each full scan
// collects every point outside the current ball (up to a bound) beside the
// per-orthant extrema, and the next ball is the exact ball of the support
// set plus those violators. After Sampling's sampling phase that ball is
// usually final, so its final phase reads the input twice: once to collect
// the few violators and once to verify.
//
// The support-set algebra (smallest ball through <= d+1 boundary points) is
// geom.Circumball.
package seb

import (
	"math"

	"pargeo/internal/geom"
)

// MaxDim bounds the dimensionality (the paper evaluates d in {2, 3, 5, 7}).
const MaxDim = 8

// Ball is a d-dimensional ball. Center[:Dim] is valid.
type Ball struct {
	Center   [MaxDim]float64
	SqRadius float64
	Dim      int
}

// containsEps is the multiplicative slack used when testing containment:
// points within (1+eps)·r² are considered inside, which keeps the iterative
// algorithms from livelocking on floating-point noise at the boundary.
const containsEps = 1e-12

// Contains reports whether p lies in the (slightly inflated) ball.
func (b *Ball) Contains(p []float64) bool {
	return b.SqDistTo(p) <= b.SqRadius*(1+containsEps)+1e-300
}

// SqDistTo returns the squared distance from the center to p.
func (b *Ball) SqDistTo(p []float64) float64 {
	s := 0.0
	for c := 0; c < b.Dim; c++ {
		d := p[c] - b.Center[c]
		s += d * d
	}
	return s
}

// Radius returns the ball radius.
func (b *Ball) Radius() float64 { return math.Sqrt(b.SqRadius) }

// ballOf computes the smallest ball with all the given points on its
// boundary (the circumball within their affine hull). ok is false for
// degenerate (affinely dependent) support sets.
func ballOf(pts geom.Points, support []int32) (Ball, bool) {
	b := Ball{Dim: pts.Dim}
	if len(support) == 0 {
		return b, true
	}
	coords := make([][]float64, len(support))
	for i, s := range support {
		coords[i] = pts.At(int(s))
	}
	center := make([]float64, pts.Dim)
	sq, ok := geom.Circumball(coords, center)
	if !ok {
		return b, false
	}
	copy(b.Center[:pts.Dim], center)
	b.SqRadius = sq
	return b, true
}

// sebOfSmall computes the exact smallest enclosing ball of a small point
// subset (up to a support set plus maxViolators points) with sequential
// move-to-front Welzl over the subset in its given order, so no random
// permutation is drawn; it is constructBall for the orthant-scan and
// sampling algorithms.
func sebOfSmall(pts geom.Points, idx []int32) Ball {
	work := append([]int32(nil), idx...)
	return welzlMtf(pts, work, nil)
}

// welzlMtf is the classic move-to-front Welzl recursion: compute the ball
// of the support, scan for a violator, recurse with the violator pinned to
// the support over the prefix before it, and move it to the front. The
// recursion depth is bounded by the support size (<= d+1), not n.
func welzlMtf(pts geom.Points, idx []int32, support []int32) Ball {
	b, ok := ballOf(pts, support)
	if !ok {
		// Degenerate support (duplicate/affinely dependent points): drop
		// the oldest support point; the minimal ball is unchanged because
		// the dependent point is already determined by the others.
		return welzlMtf(pts, idx, support[1:])
	}
	if len(support) == pts.Dim+1 {
		return b
	}
	for i := 0; i < len(idx); i++ {
		p := idx[i]
		if b.Contains(pts.At(int(p))) {
			continue
		}
		b = welzlMtf(pts, idx[:i], append(support, p))
		// Move-to-front: p will violate early in future scans.
		copy(idx[1:i+1], idx[:i])
		idx[0] = p
	}
	return b
}
