package bdltree

import "pargeo/internal/geom"

// Persistent (copy-on-write) batch updates.
//
// The logarithmic method makes the BDL-tree naturally persistent: levels
// are immutable. A batch insertion only ever *reads* the surviving levels
// (it drains some, builds new ones, and leaves the rest untouched), and a
// batch deletion replaces exactly the levels that lose a row by copies that
// share every array except a fresh tombstone bitset (level.erase).
// PersistentInsert, PersistentDelete and PersistentUpdate (shard.go: a
// commit group's erases and its insertion under one rebuild) therefore run
// the ordinary update on a copy of the Tree header and its slot vector: the
// result shares every untouched level — nodes, rows, f32 slabs, global ids
// and bitsets included — with the receiver, which stays fully queryable.
// One update copies
// O(live points of rebuilt levels) for an insertion and, for a deletion,
// n/64 bitmap words of each level that actually lost a row (plus any level
// the rebalance rebuilds), never the whole structure.
//
// This is the storage layer of internal/engine's snapshot protocol: readers
// query a published *Tree while the single committer derives the next one
// from it and installs it with an atomic pointer swap.

// shallowClone copies the Tree header and the slot vector; the levels
// themselves are shared with the receiver.
func (t *Tree) shallowClone() *Tree {
	nt := *t
	nt.trees = append([]*level(nil), t.trees...)
	return &nt
}

// PersistentInsert returns a new tree containing the receiver's live points
// plus the batch, along with the global ids assigned to the batch. The
// receiver is not modified and remains safe for concurrent queries; the two
// trees share all static trees the insertion did not rebuild.
func (t *Tree) PersistentInsert(batch geom.Points) (*Tree, []int32) {
	nt := t.shallowClone()
	ids := nt.Insert(batch)
	return nt, ids
}

// PersistentDelete returns a new tree with every live point whose
// coordinates match a batch point removed, along with the number removed.
// The receiver is not modified and remains safe for concurrent queries.
func (t *Tree) PersistentDelete(batch geom.Points) (*Tree, int) {
	nt := t.shallowClone()
	removed := nt.Delete(batch)
	return nt, removed
}
