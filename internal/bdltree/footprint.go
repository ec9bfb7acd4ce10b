package bdltree

import (
	"unsafe"

	"pargeo/internal/kdtree"
)

// MemoryFootprint estimates the heap bytes of the tree's storage — each
// level's leaf-ordered float64 rows, float32 leaf slabs, global-id array,
// node arena, membership filter and (once it has one) tombstone bitset —
// that are not already recorded in seen, and records them. Passing one
// seen map across the versions of a persistent chain therefore measures
// the chain's total without double-counting shared structure: a version
// derived with PersistentInsert/PersistentDelete shares untouched arrays
// with its parent, and those arrays are charged to whichever version was
// visited first. Keys added to seen are opaque identity tokens (internal
// array pointers); callers should treat the map as a black box seeded
// empty.
//
// The estimate covers the dominant O(n)-sized arrays and ignores
// fixed-size headers, so it is a floor — accurate to within a few percent
// for trees past a few hundred points.
func (t *Tree) MemoryFootprint(seen map[any]struct{}) uint64 {
	if t == nil {
		return 0
	}
	var total uint64
	// charge counts one array once across all versions sharing it: the
	// identity token is the array's first-element pointer, which survives
	// reslicing and is shared exactly when the storage is.
	charge := func(key any, bytes int) {
		if key == nil || bytes == 0 {
			return
		}
		if _, ok := seen[key]; ok {
			return
		}
		seen[key] = struct{}{}
		total += uint64(bytes)
	}
	for _, l := range t.levels() {
		if l == nil {
			continue
		}
		charge(unsafe.SliceData(l.Pts.Data), len(l.Pts.Data)*8)
		charge(unsafe.SliceData(l.CoordsF32), len(l.CoordsF32)*4)
		charge(unsafe.SliceData(l.Idx), len(l.Idx)*4)
		charge(unsafe.SliceData(l.Nodes), len(l.Nodes)*int(unsafe.Sizeof(kdtree.Node{})))
		charge(unsafe.SliceData(l.Dead), len(l.Dead)*8)
		charge(unsafe.SliceData(l.filter), len(l.filter)*8)
	}
	return total
}
