package bdltree

import (
	"slices"

	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/parlay"
)

// levelLeafSize is the leaf capacity of a level's kd-tree. Level sizes are
// X·2^i, so object-median leaves come out exactly full and a node costs
// 160 B per 64 points; 32 and 128 both read slower on the ladder.
const levelLeafSize = 64

// level is one tree of the ladder — a static tree or the buffer tree: a
// row-ordered kdtree arena (leaf-ordered float64 rows, their f32 slabs,
// one global id per row, the preorder nodes, a tombstone bitset that is
// nil until the level's first erase) and the count of rows still live.
// Levels are immutable once built: an erase returns a copy that shares
// every array but the bitset, so one level can serve any number of
// persistent versions. A nil *level is an empty slot.
type level struct {
	kdtree.Tree
	live int
}

// newLevel builds a level over pts, which it only reads, labelling row i
// with ids[i]; the kd-tree's final leaf-order gather is the only copy taken.
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

// erase returns the level without the live rows whose coordinates exactly
// match a batch point (cand indexes the batch rows still in play). The
// receiver is never written: a level that loses rows is replaced by a copy
// sharing every array except a fresh tombstone bitset (one word per 64
// rows), a level that loses none — the usual case, since only levels whose
// boxes contain a candidate are even descended — is returned as is, and a
// level that loses its last live row becomes nil.
func (l *level) erase(batch geom.Points, cand []int32) *level {
	if l == nil {
		return nil
	}
	rows := l.matchRows(0, batch, cand, nil)
	if len(rows) == 0 {
		return l
	}
	if len(rows) == l.live {
		return nil
	}
	nl := *l
	nl.Dead = make([]uint64, (len(l.Idx)+63)/64)
	copy(nl.Dead, l.Dead)
	for _, r := range rows {
		nl.Dead[r>>6] |= 1 << (uint(r) & 63)
	}
	nl.live -= len(rows)
	return &nl
}

// matchRows appends to rows the live rows under node ni that equal a
// candidate, descending only into subtrees whose boxes contain candidates
// (Algorithm 2's structure; removal itself is lazy, by tombstone).
func (l *level) matchRows(ni int32, batch geom.Points, cand, rows []int32) []int32 {
	nd := &l.Nodes[ni]
	box := geom.Box{Min: nd.MinC[:batch.Dim], Max: nd.MaxC[:batch.Dim]}
	kept := cand[:0:0]
	for _, ci := range cand {
		if box.Contains(batch.At(int(ci))) {
			kept = append(kept, ci)
		}
	}
	if len(kept) == 0 {
		return rows
	}
	if nd.IsLeaf() {
		for r := nd.Lo; r < nd.Hi; r++ {
			if l.IsDead(r) {
				continue
			}
			pc := l.Pts.At(int(r))
			for _, ci := range kept {
				if slices.Equal(pc, batch.At(int(ci))) {
					rows = append(rows, r)
					break
				}
			}
		}
		return rows
	}
	if len(kept) > 2048 {
		var a, b []int32
		parlay.Do(
			func() { a = l.matchRows(nd.Left, batch, kept, nil) },
			func() { b = l.matchRows(nd.Right, batch, kept, nil) },
		)
		return append(append(rows, a...), b...)
	}
	rows = l.matchRows(nd.Left, batch, kept, rows)
	return l.matchRows(nd.Right, batch, kept, rows)
}

// livePoints appends the coordinates and global ids of all live rows.
func (l *level) livePoints(coords []float64, ids []int32) ([]float64, []int32) {
	switch {
	case l == nil:
	case l.Dead == nil:
		coords, ids = append(coords, l.Pts.Data...), append(ids, l.Idx...)
	default:
		for r := range l.Idx {
			if !l.IsDead(int32(r)) {
				coords, ids = append(coords, l.Pts.At(r)...), append(ids, l.Idx[r])
			}
		}
	}
	return coords, ids
}
