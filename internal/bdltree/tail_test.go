package bdltree

import (
	"fmt"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/rng"
)

// The open leaf against oracle.LiveSet: small batches take the fast path
// (tail rebuilt alone), and every answer, count and structural invariant
// must be what it is without one.

// checkLoose: the loose points number fewer than X and the open leaf is one
// kd leaf at most — the invariant Figure 7's configurations rest on.
func checkLoose(t *testing.T, label string, tr *Tree) {
	t.Helper()
	if n := tr.tail.size(); n > levelLeafSize || (tr.tail != nil && (n == 0 || len(tr.tail.Nodes) != 1)) {
		t.Fatalf("%s: open leaf holds %d live points in %d nodes", label, n, len(tr.tail.Nodes))
	}
	if loose := tr.tail.size() + tr.buffer.size(); loose >= tr.x || loose != tr.TreeSizes()[0] {
		t.Fatalf("%s: %d loose points (tail %d + buffer %d), X = %d, TreeSizes %v",
			label, loose, tr.tail.size(), tr.buffer.size(), tr.x, tr.TreeSizes())
	}
}

// rowOf returns a copy of a level's row r.
func rowOf(l *level, r int) geom.Points {
	return geom.Points{Data: append([]float64(nil), l.Pts.At(r)...), Dim: l.Pts.Dim}
}

// TestOpenLeafInterleaved: 600 inserts of 1–7 points, with deletes in
// between aimed at rows of the tail, of the buffer tree, of both at once,
// at a point with copies in both, and at the whole tail; k-NN, range
// search, range count and the invariants are checked after every step.
func TestOpenLeafInterleaved(t *testing.T) {
	for _, split := range splitRules {
		const dim, x = 2, 128
		r := rng.NewXoshiro256(uint64(17 + split))
		tr := New(dim, Options{BufferSize: x, Split: split})
		m := &oracle.LiveSet{Dim: dim}
		fast, emptied, straddled := 0, 0, 0
		// The oracle sorts the whole live set per probe; under -short (the
		// race job) answers are compared at every fourth check, sizes and
		// invariants at every one.
		checks := 0
		check := func(label string) {
			t.Helper()
			if checks++; !testing.Short() || checks%4 == 0 {
				verifyModel(t, tr, m, 91, label)
			} else if tr.Size() != len(m.IDs) {
				t.Fatalf("%s: tree size %d, model %d", label, tr.Size(), len(m.IDs))
			}
			checkHalfFull(t, label, tr)
			checkLoose(t, label, tr)
		}
		del := func(label string, batch geom.Points) int {
			t.Helper()
			got, want := tr.Delete(batch), m.Remove(batch)
			if got != want {
				t.Fatalf("%s: tree removed %d, model %d", label, got, want)
			}
			check(label)
			return got
		}
		// ins inserts through tree and model and reports whether the tree
		// took the fast path: buffer tree and static trees left as they were.
		ins := func(label string, batch geom.Points) bool {
			t.Helper()
			buffer, trees := tr.buffer, fmt.Sprint(tr.trees)
			m.Insert(tr.Insert(batch), batch)
			check(label)
			return tr.tail != nil && tr.buffer == buffer && fmt.Sprint(tr.trees) == trees
		}
		for step := 0; step < 600; step++ {
			label := fmt.Sprintf("%v step %d", split, step)
			batch := geom.NewPoints(1+r.Intn(7), dim)
			for i := range batch.Data {
				batch.Data[i] = float64(r.Intn(1 << 20))
			}
			if ins(label, batch) {
				fast++
			}
			if tr.tail == nil || tr.buffer == nil {
				continue
			}
			switch step % 9 {
			case 1: // a row of the tail
				del(label+" tail row", rowOf(tr.tail, r.Intn(len(tr.tail.Idx))))
			case 3: // a row of the buffer tree
				del(label+" buffer row", rowOf(tr.buffer, r.Intn(len(tr.buffer.Idx))))
			case 5: // one of each in one batch, and a miss
				both := rowOf(tr.tail, 0)
				both.Data = append(both.Data, tr.buffer.Pts.At(0)...)
				both.Data = append(both.Data, -1, -1)
				del(label+" tail+buffer rows", both)
			case 7: // a copy of a live buffer row lands in the tail; one delete takes both
				row := r.Intn(len(tr.buffer.Idx))
				if tr.buffer.IsDead(int32(row)) {
					continue
				}
				dup := rowOf(tr.buffer, row)
				if ins(label+" duplicate in", dup) && del(label+" straddling duplicate", dup) >= 2 {
					straddled++
				}
			case 8: // every row of the tail: the slot empties
				if step%2 == 0 {
					del(label+" whole tail", tr.tail.Pts)
					if tr.tail != nil {
						t.Fatalf("%s: tail survives the deletion of all its rows: %v", label, tr.TreeSizes())
					}
					emptied++
				}
			}
		}
		if fast < 300 || emptied < 10 || straddled < 10 {
			t.Fatalf("%v: %d fast-path inserts, %d emptied tails, %d straddling deletes — the schedule missed its cases", split, fast, emptied, straddled)
		}
	}
}

// TestOpenLeafPersistentInsertShares: a PersistentInsert that fits the open
// leaf hands its child the parent's buffer tree and static trees themselves
// and a fresh tail; the parent keeps its own tail, size and answers.
func TestOpenLeafPersistentInsertShares(t *testing.T) {
	const x = 256
	pts := generators.UniformCube(0b101*x+100+30+5, 2, 59)
	parent, m := ladder(t, 2, x, 0b101, 100, pts)
	first := pts.Slice(0b101*x+100, 0b101*x+130)
	m.Insert(parent.Insert(first), first) // 30 points in the open leaf
	tail, sizes, ids := parent.tail, fmt.Sprint(parent.TreeSizes()), sortedIDs(parent)
	if tail.size() != 30 || parent.buffer.size() != 100 {
		t.Fatalf("parent: tail %d, buffer %d, want 30 and 100", tail.size(), parent.buffer.size())
	}
	more := pts.Slice(0b101*x+130, 0b101*x+135)
	child, cids := parent.PersistentInsert(more)
	cm := &oracle.LiveSet{Dim: 2}
	cm.Insert(m.IDs, m.Points())
	cm.Insert(cids, more)
	if child.buffer != parent.buffer || len(child.trees) != len(parent.trees) {
		t.Fatalf("child rebuilt the buffer tree or regrew the ladder: %v", child.TreeSizes())
	}
	for i := range parent.trees {
		if child.trees[i] != parent.trees[i] {
			t.Fatalf("child rebuilt static tree %d: %v", i, child.TreeSizes())
		}
	}
	if child.tail == tail || child.tail.size() != 35 {
		t.Fatalf("child's open leaf holds %d points, parent's %d", child.tail.size(), tail.size())
	}
	if parent.tail != tail || tail.Dead != nil || fmt.Sprint(parent.TreeSizes()) != sizes || !idsEqual(sortedIDs(parent), ids) {
		t.Fatalf("the parent version changed: %v, was %s", parent.TreeSizes(), sizes)
	}
	verifyModel(t, parent, m, 61, "parent after the child's insert")
	verifyModel(t, child, cm, 61, "child")
	// The one array set the two versions do not share is the child's tail.
	seen := map[any]struct{}{}
	parent.MemoryFootprint(seen)
	if extra, own := child.MemoryFootprint(seen), (&Tree{tail: child.tail}).MemoryFootprint(map[any]struct{}{}); extra != own {
		t.Fatalf("child adds %d B to its parent's footprint, its open leaf alone is %d B", extra, own)
	}
}

// TestOpenLeafThinTreeForcesRebuild: while a static tree sits below half
// capacity, even a 1-point batch takes the slow path — the thin tree's
// survivors have to move, and the open leaf moves with them.
func TestOpenLeafThinTreeForcesRebuild(t *testing.T) {
	const x = 64
	pts := generators.UniformCube(0b11*x+10+4, 2, 67)
	tr, m := ladder(t, 2, x, 0b11, 10, pts)
	three := pts.Slice(0b11*x+10, 0b11*x+13)
	m.Insert(tr.Insert(three), three)
	if tr.tail.size() != 3 {
		t.Fatalf("open leaf holds %d, want 3: %v", tr.tail.size(), tr.TreeSizes())
	}
	// erase (no rebalance) thins tree 1 to 40 of 128 and leaves it in place.
	victims := tr.trees[1].Pts.Slice(0, 88)
	if got := tr.erase(victims); got != m.Remove(victims) || tr.trees[1].size() != 40 {
		t.Fatalf("erase removed %d, tree 1 now holds %d", got, tr.trees[1].size())
	}
	buffer, tree0 := tr.buffer, tr.trees[0]
	one := pts.Slice(0b11*x+13, 0b11*x+14)
	m.Insert(tr.Insert(one), one)
	// 10 + 3 + 1 + 40 loose points: below X, so no new tree; all in the buffer.
	if tr.tail != nil || tr.buffer == buffer || tr.trees[1] != nil || tr.trees[0] != tree0 ||
		fmt.Sprint(tr.TreeSizes()) != fmt.Sprint([]int{54, x, 0}) {
		t.Fatalf("after a 1-point insert beside a thin tree: tail %v, sizes %v", tr.tail, tr.TreeSizes())
	}
	verifyModel(t, tr, m, 71, "thin tree absorbed")
	checkHalfFull(t, "thin tree absorbed", tr)
	checkLoose(t, "thin tree absorbed", tr)
}
