package main

import (
	"fmt"
	"math"
	"sort"

	"pargeo/internal/geom"
	"pargeo/internal/oracle"
)

// bruteKNNDists returns the k smallest squared distances from q to pts by
// one linear scan (skipping row exclude, -1 for none). It plays the part of
// oracle.KNN, which sorts all n candidates per query and would cost ~0.1 s
// per check at n = 500k; like oracle.KNNDists it compares answers by their
// distance signature, which is insensitive to which of two equidistant
// points a correct answer picked.
func bruteKNNDists(pts geom.Points, q []float64, k int, exclude int) []float64 {
	best := make([]float64, 0, k+1)
	for i, n := 0, pts.Len(); i < n; i++ {
		if i == exclude {
			continue
		}
		d := geom.SqDist(q, pts.At(i))
		if len(best) == k && d >= best[k-1] {
			continue
		}
		at := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[at+1:], best[at:])
		best[at] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// knnAnswerOK reports whether rows (indices into pts) are a correct k-NN
// answer for q: right count, sorted by distance, and the same distances as
// the brute-force scan.
func knnAnswerOK(pts geom.Points, q []float64, k int, exclude int, rows []int32) bool {
	want := bruteKNNDists(pts, q, k, exclude)
	if len(rows) != len(want) {
		return false
	}
	for i, r := range rows {
		if r < 0 || int(r) >= pts.Len() || geom.SqDist(q, pts.At(int(r))) != want[i] {
			return false
		}
	}
	return true
}

// knnCheck is one retained (query, answer) pair awaiting verification
// after the timed window.
type knnCheck struct {
	q   []float64
	ids []int32
}

// verifyKNN checks retained answers whose ids are engine-global ids;
// rowOf maps an id to its row in pts (ids are dense, so a slice indexed by
// id). At most limit answers, evenly spaced, are checked: each costs one
// scan of pts. Returns (checked, wrong).
func verifyKNN(pts geom.Points, rowOf []int32, k int, checks []knnCheck, limit int) (int, int) {
	step := max(1, (len(checks)+limit-1)/limit)
	checked, wrong := 0, 0
	rows := make([]int32, 0, k)
	for i := 0; i < len(checks); i += step {
		c := checks[i]
		rows = rows[:0]
		ok := true
		for _, id := range c.ids {
			if id < 0 || int(id) >= len(rowOf) {
				ok = false
				break
			}
			rows = append(rows, rowOf[id])
		}
		checked++
		if !ok || !knnAnswerOK(pts, c.q, k, -1, rows) {
			wrong++
		}
	}
	return checked, wrong
}

// rowIndex inverts an id list: out[id] = row. Ids the engine assigns are
// dense from 0, so a slice does.
func rowIndex(ids []int32) []int32 {
	mx := int32(-1)
	for _, id := range ids {
		mx = max(mx, id)
	}
	out := make([]int32, mx+1)
	for i := range out {
		out[i] = -1
	}
	for row, id := range ids {
		out[id] = int32(row)
	}
	return out
}

// liveSetDiff compares a recovered (points, ids) pair with the model of
// what must be live, by id: every model id present with identical
// coordinates and nothing extra. Returns a description of the first
// mismatch, "" when equal.
func liveSetDiff(model *oracle.LiveSet, pts geom.Points, ids []int32) string {
	if len(ids) != len(model.IDs) {
		return fmt.Sprintf("recovered %d live points, model has %d", len(ids), len(model.IDs))
	}
	got := make(map[int32]int, len(ids))
	for row, id := range ids {
		got[id] = row
	}
	dim := model.Dim
	for i, id := range model.IDs {
		row, ok := got[id]
		if !ok {
			return fmt.Sprintf("model id %d missing after recovery", id)
		}
		for c := 0; c < dim; c++ {
			if pts.Data[row*dim+c] != model.Coords[i*dim+c] {
				return fmt.Sprintf("id %d recovered with different coordinates", id)
			}
		}
	}
	return ""
}

// hullMisses checks a 2-D or 3-D hull with inside (oracle.InHull2D/3D
// bound to the hull) on every stride-th input point plus the extreme point
// along a fan of directions: a missing hull vertex leaves the extreme point
// of some direction outside, which a sample alone could miss. Returns the
// number of points found outside.
func hullMisses(pts geom.Points, stride int, inside func(q []float64) bool) int {
	dim := pts.Dim
	n := pts.Len()
	miss := 0
	for i := 0; i < n; i += stride {
		if !inside(pts.At(i)) {
			miss++
		}
	}
	const dirs = 48
	dir := make([]float64, dim)
	for d := 0; d < dirs; d++ {
		a := 2 * math.Pi * float64(d) / dirs
		dir[0], dir[1] = math.Cos(a), math.Sin(a)
		if dim == 3 {
			b := math.Pi * (float64(d%7) - 3) / 7
			dir[0], dir[1], dir[2] = math.Cos(a)*math.Cos(b), math.Sin(a)*math.Cos(b), math.Sin(b)
		}
		best, bestDot := 0, math.Inf(-1)
		for i := 0; i < n; i++ {
			dot := 0.0
			p := pts.At(i)
			for c := 0; c < dim; c++ {
				dot += p[c] * dir[c]
			}
			if dot > bestDot {
				best, bestDot = i, dot
			}
		}
		if !inside(pts.At(best)) {
			miss++
		}
	}
	return miss
}
