package seb

import (
	"math"

	"pargeo/internal/geom"
	"pargeo/internal/parlay"
	"pargeo/internal/rng"
)

// This file implements Larsson et al.'s iterative orthant scan (§4) and the
// paper's sampling-based bootstrap for it (Fig. 6).
//
// One scan partitions space into 2^min(d,6) orthants around the current
// ball center and finds, per orthant, the furthest point lying outside the
// ball. The scan is parallelized exactly as the paper describes: the input
// is divided into blocks, each block scanned sequentially, blocks in
// parallel, and the per-block results merged afterwards. The same scan also
// collects every point outside the ball, up to maxViolators of them. The
// ball is then recomputed as the exact smallest ball of the current support
// set plus those violators (constructBall), or plus the orthant extrema
// when there are more violators than that.
//
// Sampling's final phase reads the input in place, with no index array.
// The sampling phase leaves a ball that few points escape, so the first
// full scan usually collects all of them, and the ball of support ∪
// violators is final: the second full scan only verifies it. OrthantScan
// runs the same loop from a two-point ball.

// maxOrthantBits caps the orthant count at 2^6 = 64 for high dimensions.
const maxOrthantBits = 6

// maxViolators bounds how many points outside the ball one scan collects.
// Past it, the step falls back to the per-orthant extrema: an exact ball of
// a few thousand points costs more than another scan saves.
const maxViolators = 1024

// scanResult is what one scan of a point set against a ball found.
type scanResult struct {
	ids     []int32   // per orthant: furthest outside point (-1 none)
	dists   []float64 // per orthant: its squared distance
	out     []int32   // points outside the ball, in input order, at most maxViolators
	outside int       // how many points lie outside the ball
}

func newScanResult(numOrth int) scanResult {
	r := scanResult{ids: make([]int32, numOrth), dists: make([]float64, numOrth)}
	for o := range r.ids {
		r.ids[o] = -1
	}
	return r
}

// candidates returns the point set whose exact ball is the next iterate:
// support plus every violator, or plus the orthant extrema when the scan
// found more than maxViolators.
func (r *scanResult) candidates(support []int32) []int32 {
	cand := append([]int32(nil), support...)
	if r.outside <= maxViolators {
		return append(cand, r.out...)
	}
	for _, id := range r.ids {
		if id >= 0 {
			cand = append(cand, id)
		}
	}
	return cand
}

// scan tests the points of pts against ball b. ids maps a row of pts to
// the point id it reports; nil means the row number itself.
func scan(pts geom.Points, ids []int32, b *Ball) scanResult {
	bits := min(pts.Dim, maxOrthantBits)
	numOrth := 1 << bits
	n := pts.Len()
	nblocks := min(4*parlay.NumWorkers(), n/1024+1)
	blockSize := (n + nblocks - 1) / nblocks
	limit := b.SqRadius * (1 + containsEps)
	partial := make([]scanResult, nblocks)
	parlay.For(nblocks, 1, func(blk int) {
		r := newScanResult(numOrth)
		for i := blk * blockSize; i < min((blk+1)*blockSize, n); i++ {
			p := pts.At(i)
			d := b.SqDistTo(p)
			if d <= limit {
				continue
			}
			id := int32(i)
			if ids != nil {
				id = ids[i]
			}
			if r.outside++; r.outside <= maxViolators {
				r.out = append(r.out, id)
			}
			o := 0
			for c := 0; c < bits; c++ {
				if p[c] >= b.Center[c] {
					o |= 1 << c
				}
			}
			if r.ids[o] < 0 || d > r.dists[o] {
				r.ids[o] = id
				r.dists[o] = d
			}
		}
		partial[blk] = r
	})
	acc := newScanResult(numOrth)
	for _, r := range partial {
		for o := range acc.ids {
			if r.ids[o] >= 0 && (acc.ids[o] < 0 || r.dists[o] > acc.dists[o]) {
				acc.ids[o] = r.ids[o]
				acc.dists[o] = r.dists[o]
			}
		}
		acc.outside += r.outside
		if acc.outside <= maxViolators {
			acc.out = append(acc.out, r.out...)
		}
	}
	return acc
}

// boundarySupport returns the candidate points lying (numerically) on the
// ball boundary — the support carried into the next iteration.
func boundarySupport(pts geom.Points, b *Ball, candidates []int32) []int32 {
	var out []int32
	for _, c := range candidates {
		d := b.SqDistTo(pts.At(int(c)))
		if math.Abs(d-b.SqRadius) <= b.SqRadius*1e-9 {
			out = append(out, c)
		}
	}
	if len(out) == 0 && len(candidates) > 0 {
		out = candidates[:1]
	}
	return out
}

// constructBall recomputes the exact smallest ball of a small candidate set
// (support ∪ violators, or support ∪ extrema), per Fig. 6's constructBall.
func constructBall(pts geom.Points, candidates []int32) Ball {
	return sebOfSmall(pts, candidates)
}

// maxScanIterations bounds the orthant-scan loop; on the paper's inputs the
// loop converges in a handful of iterations, and the bound only guards
// against floating-point livelock (the fallback recomputes exactly with
// Welzl).
const maxScanIterations = 200

// runStats counts what one Sampling or OrthantScan call did.
type runStats struct {
	sampled    int // points drawn by the sampling phase
	fullPasses int // scans of the whole input
	overflows  int // scans that found more than maxViolators points outside
}

// initialBall seeds the iteration with the ball through p0 and p1, where p1
// is the point of some set furthest from p0 (a cheap diameter estimate).
func initialBall(pts geom.Points, p0, p1 int32) (Ball, []int32) {
	support := []int32{p0, p1}
	b, ok := ballOf(pts, support)
	if !ok { // identical points
		support = support[:1]
		b, _ = ballOf(pts, support)
	}
	return b, support
}

// scanLoop scans the whole input until no point lies outside the ball,
// returning the exact ball (falling back to Welzl if progress stalls).
func scanLoop(pts geom.Points, b Ball, support []int32, st *runStats) Ball {
	for iter := 0; iter < maxScanIterations; iter++ {
		res := scan(pts, nil, &b)
		st.fullPasses++
		if res.outside == 0 {
			return b // enclosing and equal to SEB of its support: optimal
		}
		if res.outside > maxViolators {
			st.overflows++
		}
		cand := res.candidates(support)
		nb := constructBall(pts, cand)
		if nb.SqRadius <= b.SqRadius*(1+1e-14) && iter > 0 {
			// No radius progress: floating-point stall. Fall back to the
			// exact parallel Welzl for a guaranteed answer.
			return Welzl(pts, 0xfa11bac, Heuristics{MTF: true})
		}
		b = nb
		support = boundarySupport(pts, &b, cand)
	}
	return Welzl(pts, 0xfa11bac, Heuristics{MTF: true})
}

// OrthantScan computes the smallest enclosing ball with Larsson et al.'s
// parallel iterative orthant scan ("Scan" in Fig. 10).
func OrthantScan(pts geom.Points) Ball {
	return orthantScan(pts, &runStats{})
}

func orthantScan(pts geom.Points, st *runStats) Ball {
	if pts.Len() == 0 {
		return Ball{Dim: pts.Dim}
	}
	far := parlay.MaxIndexFloat(pts.Len(), 0, func(i int) float64 { return pts.SqDist(0, i) })
	b, support := initialBall(pts, 0, int32(far))
	return scanLoop(pts, b, support, st)
}

// SampleSegment is the constant sample-segment size of the sampling phase
// (Fig. 6's batch size c).
const SampleSegment = 4096

// Sampling computes the smallest enclosing ball with the paper's
// sampling-based algorithm (Fig. 6): bootstrap the support set from
// constant-size random samples until a sample arrives with no outliers,
// then finish with full scans of the input.
func Sampling(pts geom.Points, seed uint64) Ball {
	return sampling(pts, seed, &runStats{})
}

// SamplingStats additionally reports the fraction of the input scanned
// during the sampling phase (§6.2 reports ~5% on average).
func SamplingStats(pts geom.Points, seed uint64) (Ball, float64) {
	var st runStats
	b := sampling(pts, seed, &st)
	if pts.Len() == 0 {
		return b, 0
	}
	return b, float64(st.sampled) / float64(pts.Len())
}

func sampling(pts geom.Points, seed uint64, st *runStats) Ball {
	n := pts.Len()
	if n == 0 {
		return Ball{Dim: pts.Dim}
	}
	// Sampling phase: draw each segment's points uniformly at random (with
	// replacement) into one reused buffer and scan it; stop when a sample
	// has no outliers, or once as many points as the input holds were drawn.
	r := rng.NewXoshiro256(seed)
	buf := geom.NewPoints(min(n, SampleSegment), pts.Dim)
	bufIDs := make([]int32, buf.Len())
	draw := func() (geom.Points, []int32) {
		m := min(buf.Len(), n-st.sampled)
		for k := 0; k < m; k++ {
			i := r.Intn(n)
			bufIDs[k] = int32(i)
			copy(buf.At(k), pts.At(i))
		}
		st.sampled += m
		return buf.Slice(0, m), bufIDs[:m]
	}
	sample, ids := draw()
	p0, p1 := ids[0], ids[0]
	for _, id := range ids[:min(len(ids), 64)] {
		if pts.SqDist(int(p0), int(id)) > pts.SqDist(int(p0), int(p1)) {
			p1 = id
		}
	}
	b, support := initialBall(pts, p0, p1)
	for {
		res := scan(sample, ids, &b)
		if res.outside == 0 {
			break // the current ball already covers a fresh random sample
		}
		if res.outside > maxViolators {
			st.overflows++
		}
		cand := res.candidates(support)
		b = constructBall(pts, cand)
		support = boundarySupport(pts, &b, cand)
		if st.sampled == n {
			break
		}
		sample, ids = draw()
	}
	// Final phase: full scans until exact.
	return scanLoop(pts, b, support, st)
}
