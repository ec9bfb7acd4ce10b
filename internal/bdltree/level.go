package bdltree

import (
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
)

// levelLeafSize is the leaf capacity of a level's kd-tree. Level sizes are
// X·2^i, so object-median leaves come out exactly full and a node costs
// 160 B per 64 points; 32 and 128 both read slower on the ladder.
const levelLeafSize = 64

// level is one tree of the ladder — a static tree or the buffer tree: a
// kdtree arena (leaf-ordered float64 rows, their f32 slabs,
// one global id per row, the preorder nodes, a tombstone bitset that is
// nil until the level's first erase) and the count of rows still live.
// Levels are immutable once built: an erase returns a copy that shares
// every array but the bitset, so one level can serve any number of
// persistent versions. A nil *level is an empty slot.
type level struct {
	kdtree.Tree
	live int
}

// newLevel builds a level over pts, labelling row i with ids[i]. The level
// takes ownership of both slices: the kd-tree partitions them in place into
// its leaf-ordered rows and labels, so no copy is taken.
func newLevel(pts geom.Points, ids []int32, split SplitRule) *level {
	if pts.Len() == 0 {
		return nil
	}
	kt := kdtree.BuildRows(pts, ids, kdtree.Options{Split: split, LeafSize: levelLeafSize})
	return &level{Tree: *kt, live: pts.Len()}
}

// size returns the live point count.
func (l *level) size() int {
	if l == nil {
		return 0
	}
	return l.live
}

// knnInto adds this level's neighbors of query q into buf (the
// shared-buffer protocol of Appendix C.4). exclude is a global id to skip
// (-1 none).
func (l *level) knnInto(q []float64, exclude int32, buf *kdtree.KNNBuffer) {
	if l != nil {
		l.KNNInto(q, exclude, buf)
	}
}

// erase returns the level without the given rows, which arrive as the
// blocks Tree.erase collected (live when collected, possibly repeated
// across blocks — duplicate candidates find the same row — so a row counts
// the first time its bit is set). The receiver is never written: a level
// that loses rows is replaced by a copy sharing every array except a fresh
// tombstone bitset (one word per 64 rows), a level that loses none is
// returned as is, and a level that loses its last live row becomes nil.
func (l *level) erase(blocks [][]int32) *level {
	var nl *level
	for _, rows := range blocks {
		if nl == nil && len(rows) > 0 {
			nl = &level{Tree: l.Tree, live: l.live}
			nl.Dead = make([]uint64, (len(l.Idx)+63)/64)
			copy(nl.Dead, l.Dead)
		}
		for _, r := range rows {
			if !nl.IsDead(r) {
				nl.Dead[r>>6] |= 1 << (uint(r) & 63)
				nl.live--
			}
		}
	}
	switch {
	case nl == nil:
		return l
	case nl.live == 0:
		return nil
	}
	return nl
}

// eachLive hands yield the level's live rows in storage order, as slices of
// the level's own arrays (read-only to the callee): both arrays whole for a
// level without tombstones, one call per run of live rows otherwise.
func (l *level) eachLive(yield func(coords []float64, ids []int32)) {
	switch {
	case l == nil:
	case l.Dead == nil:
		yield(l.Pts.Data, l.Idx)
	default:
		dim := l.Pts.Dim
		for r, n := 0, len(l.Idx); r < n; r++ {
			lo := r
			for r < n && !l.IsDead(int32(r)) {
				r++
			}
			if r > lo {
				yield(l.Pts.Data[lo*dim:r*dim], l.Idx[lo:r])
			}
		}
	}
}

// livePoints appends the coordinates and global ids of all live rows.
func (l *level) livePoints(coords []float64, ids []int32) ([]float64, []int32) {
	l.eachLive(func(c []float64, i []int32) {
		coords, ids = append(coords, c...), append(ids, i...)
	})
	return coords, ids
}
