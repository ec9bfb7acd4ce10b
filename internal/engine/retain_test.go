package engine

import (
	"errors"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/wal"
)

// TestRetainWindow verifies the sliding AsOf window: the last RetainEpochs
// epochs resolve, older ones fail typed, future ones fail typed, and the
// window tracks the live epoch as commits advance.
func TestRetainWindow(t *testing.T) {
	const keep = 4
	e := New(2, Options{BufferSize: 64, RetainEpochs: keep})
	defer e.Close()

	sizes := map[uint64]int{0: 0} // epoch -> live size at that epoch
	total := 0
	for round := 0; round < 10; round++ {
		batch := generators.UniformCube(50, 2, uint64(round)+1)
		res := e.Insert(batch)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		total += batch.Len()
		sizes[res.Epoch] = total
	}

	live := e.Epoch()
	if live != 10 {
		t.Fatalf("live epoch %d, want 10", live)
	}
	for epoch := uint64(0); epoch <= live; epoch++ {
		s, err := e.AsOf(epoch)
		inWindow := epoch > live-keep
		if inWindow {
			if err != nil {
				t.Fatalf("AsOf(%d) inside window: %v", epoch, err)
			}
			if s.Epoch() != epoch {
				t.Fatalf("AsOf(%d) returned epoch %d", epoch, s.Epoch())
			}
			if s.Size() != sizes[epoch] {
				t.Fatalf("AsOf(%d) size %d, want %d", epoch, s.Size(), sizes[epoch])
			}
		} else {
			if !errors.Is(err, ErrEpochNotRetained) {
				t.Fatalf("AsOf(%d) outside window: got %v, want ErrEpochNotRetained", epoch, err)
			}
		}
	}
	if _, err := e.AsOf(live + 1); !errors.Is(err, ErrEpochNotRetained) {
		t.Fatalf("AsOf(future) = %v, want ErrEpochNotRetained", err)
	}
	if w := e.RetainWatermark(); w != live-keep+1 {
		t.Fatalf("watermark %d, want %d", w, live-keep+1)
	}

	st := e.Stats()
	if st.RetainedEpochs != keep {
		t.Fatalf("RetainedEpochs %d, want %d", st.RetainedEpochs, keep)
	}
	if st.PinnedEpochs != 0 {
		t.Fatalf("PinnedEpochs %d, want 0", st.PinnedEpochs)
	}
	if st.RetainedBytes == 0 {
		t.Fatal("RetainedBytes must be nonzero with old versions retained")
	}
}

// TestRetainDisabled checks the default: no window, only the live epoch
// resolves, and RetainedBytes stays zero.
func TestRetainDisabled(t *testing.T) {
	e := New(2, Options{BufferSize: 64})
	defer e.Close()
	res := e.Insert(generators.UniformCube(100, 2, 1))
	e.Insert(generators.UniformCube(100, 2, 2))

	if _, err := e.AsOf(e.Epoch()); err != nil {
		t.Fatalf("AsOf(live): %v", err)
	}
	if _, err := e.AsOf(res.Epoch); !errors.Is(err, ErrEpochNotRetained) {
		t.Fatalf("AsOf(previous) = %v, want ErrEpochNotRetained", err)
	}
	st := e.Stats()
	if st.RetainedEpochs != 1 || st.RetainedBytes != 0 {
		t.Fatalf("disabled retention: RetainedEpochs=%d RetainedBytes=%d, want 1/0",
			st.RetainedEpochs, st.RetainedBytes)
	}
}

// TestPinOutlivesWindow pins an epoch, advances the live epoch far past the
// retention window, and checks the pin keeps the epoch resolvable (with its
// contents intact) until the last nested Release.
func TestPinOutlivesWindow(t *testing.T) {
	e := New(2, Options{BufferSize: 64, RetainEpochs: 2})
	defer e.Close()

	first := generators.UniformCube(80, 2, 7)
	if res := e.Insert(first); res.Err != nil {
		t.Fatal(res.Err)
	}
	pinned := e.Pin()
	second := e.Pin() // nested pin of the same epoch
	pinnedEpoch := pinned.Epoch()
	wantSize := pinned.Size()

	for round := 0; round < 8; round++ {
		e.Insert(generators.UniformCube(40, 2, uint64(round)+100))
	}
	if e.Epoch() <= pinnedEpoch+2 {
		t.Fatal("test needs the pinned epoch to fall out of the ring")
	}

	s, err := e.AsOf(pinnedEpoch)
	if err != nil {
		t.Fatalf("AsOf(pinned) after trim: %v", err)
	}
	if s.Size() != wantSize {
		t.Fatalf("pinned snapshot size %d, want %d", s.Size(), wantSize)
	}
	if got := e.Stats().PinnedEpochs; got != 1 {
		t.Fatalf("PinnedEpochs %d, want 1 (nested pins share the epoch)", got)
	}

	second.Release()
	if _, err := e.AsOf(pinnedEpoch); err != nil {
		t.Fatalf("epoch must stay pinned until the LAST release: %v", err)
	}
	pinned.Release()
	if _, err := e.AsOf(pinnedEpoch); !errors.Is(err, ErrEpochNotRetained) {
		t.Fatalf("AsOf after final release = %v, want ErrEpochNotRetained", err)
	}
	// The caller's own handle stays usable after Release.
	if got := pinned.KNN(geom.Points{Data: []float64{0.5, 0.5}, Dim: 2}, 3); len(got) != 1 {
		t.Fatalf("released handle must still answer queries: %v", got)
	}
}

// TestPinEpoch pins a historical (non-live) retained epoch and checks the
// typed failure for epochs outside the window.
func TestPinEpoch(t *testing.T) {
	e := New(2, Options{BufferSize: 64, RetainEpochs: 3})
	defer e.Close()
	var epochs []uint64
	for round := 0; round < 6; round++ {
		res := e.Insert(generators.UniformCube(30, 2, uint64(round)+1))
		epochs = append(epochs, res.Epoch)
	}
	old := epochs[1] // long gone from a 3-epoch ring
	if _, err := e.PinEpoch(old); !errors.Is(err, ErrEpochNotRetained) {
		t.Fatalf("PinEpoch(trimmed) = %v, want ErrEpochNotRetained", err)
	}
	if _, err := e.PinEpoch(e.Epoch() + 5); !errors.Is(err, ErrEpochNotRetained) {
		t.Fatalf("PinEpoch(future) = %v, want ErrEpochNotRetained", err)
	}
	mid := epochs[4]
	s, err := e.PinEpoch(mid)
	if err != nil {
		t.Fatalf("PinEpoch(%d): %v", mid, err)
	}
	for round := 0; round < 6; round++ {
		e.Insert(generators.UniformCube(30, 2, uint64(round)+50))
	}
	if _, err := e.AsOf(mid); err != nil {
		t.Fatalf("pinned historical epoch must survive the window: %v", err)
	}
	s.Release()
}

// TestReleaseUnbalancedPanics: Release without a matching Pin is a caller
// bug and must not silently unpin someone else's epoch.
func TestReleaseUnbalancedPanics(t *testing.T) {
	e := New(2, Options{BufferSize: 64})
	defer e.Close()
	e.Insert(generators.UniformCube(10, 2, 1))
	s := e.Snapshot() // never pinned
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Pin must panic")
		}
	}()
	s.Release()
}

// TestRetainNoopAck checks the no-op-ack/retention interaction: the epoch a
// no-op commit acknowledges at is always one that actually published, so
// with retention on it must resolve through AsOf.
func TestRetainNoopAck(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(2, Options{
		BufferSize:   64,
		RetainEpochs: 16,
		Durability:   &Durability{Dir: dir, FS: wal.OSFS{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	res := e.Insert(generators.UniformCube(100, 2, 1))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Delete a point that does not exist: a no-op group, acknowledged
	// without publishing.
	miss := geom.Points{Data: []float64{1e6, 1e6}, Dim: 2}
	noop := e.Delete(miss)
	if noop.Err != nil {
		t.Fatal(noop.Err)
	}
	if noop.Deleted != 0 {
		t.Fatalf("deleted %d, want 0", noop.Deleted)
	}
	s, err := e.AsOf(noop.Epoch)
	if err != nil {
		t.Fatalf("AsOf(no-op ack epoch %d): %v", noop.Epoch, err)
	}
	if s.Size() != 100 {
		t.Fatalf("no-op ack epoch size %d, want 100", s.Size())
	}
	if e.Epoch() != res.Epoch {
		t.Fatalf("no-op must not publish: epoch %d, want %d", e.Epoch(), res.Epoch)
	}
}

// TestRetainRecovery restates the documented semantics: pins and the
// retention window are in-memory only. A reopened engine resolves exactly
// the recovered epoch; pinned and retained history is gone.
func TestRetainRecovery(t *testing.T) {
	dir := t.TempDir()
	fs := wal.OSFS{}
	opts := Options{BufferSize: 64, RetainEpochs: 8, Durability: &Durability{Dir: dir, FS: fs}}
	e, err := Open(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	var old uint64
	for round := 0; round < 5; round++ {
		res := e.Insert(generators.UniformCube(40, 2, uint64(round)+1))
		if round == 2 {
			old = res.Epoch
			if _, err := e.PinEpoch(old); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveEpoch, liveSize := e.Epoch(), e.Size()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Epoch() != liveEpoch || e2.Size() != liveSize {
		t.Fatalf("recovered epoch/size %d/%d, want %d/%d", e2.Epoch(), e2.Size(), liveEpoch, liveSize)
	}
	st := e2.Stats()
	if st.RetainedEpochs != 1 || st.PinnedEpochs != 0 {
		t.Fatalf("recovered retention state %d/%d, want 1 retained, 0 pinned",
			st.RetainedEpochs, st.PinnedEpochs)
	}
	if _, err := e2.AsOf(old); !errors.Is(err, ErrEpochNotRetained) {
		t.Fatalf("pre-crash pin must not survive recovery: AsOf = %v", err)
	}
	if _, err := e2.AsOf(liveEpoch); err != nil {
		t.Fatalf("AsOf(recovered epoch): %v", err)
	}
}

// TestAnalyticsJobs checks KNNGraph and CoreDistances against the oracle's
// self-excluding brute force on a pinned snapshot.
func TestAnalyticsJobs(t *testing.T) {
	e := New(2, Options{BufferSize: 32, Shards: 4})
	defer e.Close()
	res := e.Insert(generators.UniformCube(300, 2, 11))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	s := e.Pin()
	defer s.Release()

	// Mutate past the pin so the job provably reads the pinned version.
	e.Insert(generators.UniformCube(300, 2, 12))

	pts, gids := s.Points()
	pos := make(map[int32]int, len(gids)) // global id -> row in pts
	for i, g := range gids {
		pos[g] = i
	}

	const k = 5
	g := s.KNNGraph(k)
	if len(g.IDs) != pts.Len() || len(g.Neighbors) != pts.Len()*k {
		t.Fatalf("graph shape: %d nodes, %d edges", len(g.IDs), len(g.Neighbors))
	}
	for i := 0; i < pts.Len(); i++ {
		self := pos[g.IDs[i]]
		wantD := oracle.KNNDists(pts, pts.At(self), k, int32(self))
		for j := 0; j < k; j++ {
			nb := g.Neighbors[i*k+j]
			if nb == g.IDs[i] {
				t.Fatalf("node %d lists itself as a neighbor", g.IDs[i])
			}
			d := geom.SqDist(pts.At(self), pts.At(pos[nb]))
			if d != wantD[j] {
				t.Fatalf("edge (%d,%d) dist %v, oracle %v", i, j, d, wantD[j])
			}
			if d != g.SqDists[i*k+j] {
				t.Fatalf("SqDists[%d,%d]=%v, recomputed %v", i, j, g.SqDists[i*k+j], d)
			}
		}
	}

	const minPts = 4
	coreIDs, core := s.CoreDistances(minPts)
	for i := range coreIDs {
		self := pos[coreIDs[i]]
		wantD := oracle.KNNDists(pts, pts.At(self), minPts, int32(self))
		want := wantD[minPts-1]
		if got := core[i] * core[i]; !almostEq(got, want) {
			t.Fatalf("core distance of id %d: %v² = %v, oracle %v", coreIDs[i], core[i], got, want)
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > scale {
		scale = b
	}
	return d <= 1e-12*(1+scale)
}
