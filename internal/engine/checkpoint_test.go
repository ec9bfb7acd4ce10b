package engine

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/wal"
)

// allocatedBytes returns what f allocated (runtime.MemStats.TotalAlloc, so
// garbage counts as much as what stays live).
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// ckptEngine opens a durable engine under dir on the real file system (a
// MemFS file is itself a heap allocation the size of the checkpoint), loads
// n uniform 2-D points in one founding commit — at one shard the last
// 131 072 input rows are exactly the largest level — deletes every third of
// the last 120 000 input rows, so that level is a third tombstones, and
// adds a few small batches so that open leaves exist.
func ckptEngine(t *testing.T, dir string, shards, n int) (*Engine, *oracle.LiveSet) {
	t.Helper()
	opts := Options{Shards: shards, Durability: &Durability{Dir: dir, SyncEvery: 64}}
	e, err := Open(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := &oracle.LiveSet{Dim: 2}
	pts := generators.UniformCube(n+40, 2, 77)
	res := e.Insert(pts.Slice(0, n))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// The model takes the survivors directly (LiveSet.Remove is a linear scan
	// per deleted point; the generator's rows are distinct).
	del := geom.Points{Dim: 2}
	for i := 0; i < n; i++ {
		if i >= n-n*3/5 && (n-i)%3 == 0 {
			del.Data = append(del.Data, pts.At(i)...)
		} else {
			m.Insert(res.IDs[i:i+1], pts.Slice(i, i+1))
		}
	}
	if res := e.Delete(del); res.Err != nil || res.Deleted != del.Len() {
		t.Fatalf("deleted %d of %d, err %v", res.Deleted, del.Len(), res.Err)
	}
	for i := n; i < n+40; i += 8 {
		res := e.Insert(pts.Slice(i, i+8))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		m.Insert(res.IDs, pts.Slice(i, i+8))
	}
	return e, m
}

// reopenAndCompare closes e, recovers a fresh engine from dir and requires
// the model's live set, point for point and id for id.
func reopenAndCompare(t *testing.T, label string, e *Engine, dir string, shards int, m *oracle.LiveSet) {
	t.Helper()
	epoch := e.Epoch()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(2, Options{Shards: shards, Durability: &Durability{Dir: dir, SyncEvery: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != epoch {
		t.Fatalf("%s: recovered epoch %d, want %d", label, re.Epoch(), epoch)
	}
	diffStates(t, label, engineState(re), modelState(m))
}

// TestCheckpointStreamsWithoutMaterialising: a checkpoint of n points, a
// third of the largest level tombstoned, allocates a write buffer and small
// change — not the ≈ 100 B per live point that extracting, sorting and
// encoding the set used to — stores the partition, and restores to the same
// live set, at 1 and 4 shards.
func TestCheckpointStreamsWithoutMaterialising(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 50_000
	}
	for _, shards := range []int{1, 4} {
		label := fmt.Sprintf("%d shards", shards)
		dir := filepath.Join(t.TempDir(), "db")
		e, m := ckptEngine(t, dir, shards, n)
		var err error
		bytes := allocatedBytes(func() { err = e.Checkpoint() })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: Checkpoint of %d live points allocated %d B", label, len(m.IDs), bytes)
		if !raceEnabled && bytes > 256<<10 {
			t.Errorf("%s: Checkpoint allocated %d B, limit 256 KiB", label, bytes)
		}
		c, err := wal.LoadLatestCheckpoint(wal.OSFS{}, dir)
		if err != nil || c == nil || c.Epoch != e.Epoch() || len(c.IDs) != len(m.IDs) || c.HasPart != (shards > 1) {
			t.Fatalf("%s: loaded %+v, %v; want epoch %d, %d points", label, c, err, e.Epoch(), len(m.IDs))
		}
		reopenAndCompare(t, label, e, dir, shards, m)
	}
}

// TestCheckpointBrokenPartitionFallsBack: when a live point encodes outside
// its shard's code range (here: the snapshot's partition swapped by hand for
// one with every boundary moved), the checkpoint stores no partition and
// recovery refounds one over the points — same live set.
func TestCheckpointBrokenPartitionFallsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	e, m := ckptEngine(t, dir, 4, 20_000)
	snap := *e.snap.Load()
	bounds := append([]uint64(nil), snap.part.bounds...)
	for i := range bounds {
		bounds[i] /= 2
	}
	snap.part = newPartitionFromBounds(2, snap.part.world, bounds)
	e.snap.Store(&snap)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c, err := wal.LoadLatestCheckpoint(wal.OSFS{}, dir)
	if err != nil || c == nil || c.HasPart || len(c.IDs) != len(m.IDs) {
		t.Fatalf("loaded %+v, %v; want %d points and no partition", c, err, len(m.IDs))
	}
	reopenAndCompare(t, "broken partition", e, dir, 4, m)
}

// TestCheckpointMiscountLeavesLogAlone: if the snapshot's levels yield a
// different number of rows than the snapshot claims to hold (forced by
// hand), Checkpoint fails before anything is renamed or pruned: the
// directory is as it was and recovery replays the whole log.
func TestCheckpointMiscountLeavesLogAlone(t *testing.T) {
	for _, off := range []int{-1, 1} {
		fs := wal.NewMemFS()
		e, err := Open(2, durOpts(fs, 4, nil))
		if err != nil {
			t.Fatal(err)
		}
		m := &oracle.LiveSet{Dim: 2}
		pts := generators.UniformCube(3_000, 2, 5)
		for i := 0; i < 3_000; i += 500 {
			res := e.Insert(pts.Slice(i, i+500))
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			m.Insert(res.IDs, pts.Slice(i, i+500))
		}
		before, _ := fs.ReadDir("db")
		snap := *e.snap.Load()
		snap.size += off
		e.snap.Store(&snap)
		if err := e.Checkpoint(); err == nil {
			t.Fatalf("size off by %d: Checkpoint succeeded", off)
		}
		if after, _ := fs.ReadDir("db"); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("size off by %d: failed Checkpoint changed the directory: %v -> %v", off, before, after)
		}
		e.Close()
		re, err := Open(2, durOpts(fs, 4, nil))
		if err != nil {
			t.Fatal(err)
		}
		diffStates(t, "after the failed checkpoint", engineState(re), modelState(m))
		re.Close()
	}
}

// TestCheckpointCrashBetweenChunks: the machine dies between two chunks of
// a checkpoint's coordinate pass; recovery takes the previous checkpoint
// and the log past it, whether or not unsynced bytes survived.
func TestCheckpointCrashBetweenChunks(t *testing.T) {
	fs := wal.NewMemFS()
	e, err := Open(2, durOpts(fs, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	m := &oracle.LiveSet{Dim: 2}
	pts := generators.UniformCube(30_000, 2, 9)
	insert := func(lo, hi int) {
		t.Helper()
		res := e.Insert(pts.Slice(lo, hi))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		m.Insert(res.IDs, pts.Slice(lo, hi))
	}
	insert(0, 20_000)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 20_000; i < 30_000; i += 1_000 {
		insert(i, i+1_000)
	}
	// 30 000 points: ids end inside the 2nd chunk, coordinates run to the
	// 10th. Operation 1 is the create, 2–10 the chunks that fill up; the
	// 6th falls inside the coordinate pass.
	fs.SetCrash(6, true)
	if err := e.Checkpoint(); err == nil || !fs.Crashed() {
		t.Fatalf("Checkpoint over a crashing file system: err = %v, crashed %v", err, fs.Crashed())
	}
	e.Close() // fails too; the images below are what a reboot finds
	for _, drop := range []bool{false, true} {
		re, err := Open(2, durOpts(fs.CrashImage(drop), 4, nil))
		if err != nil {
			t.Fatalf("drop=%v: %v", drop, err)
		}
		diffStates(t, fmt.Sprintf("drop=%v", drop), engineState(re), modelState(m))
		re.Close()
	}
}
