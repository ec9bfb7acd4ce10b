package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pargeo/internal/geom"
)

func pts(dim int, vals ...float64) geom.Points {
	return geom.Points{Data: vals, Dim: dim}
}

func commitRecord(epoch uint64, dels []geom.Points, ins geom.Points, ids []int32) []byte {
	return AppendCommitBody(nil, dels, ins, ids)
}

func TestRecordRoundTrip(t *testing.T) {
	dim := 3
	dels := []geom.Points{
		pts(dim, 1, 2, 3, 4, 5, 6),
		pts(dim),
		pts(dim, -0.5, 1e300, 0),
	}
	ins := pts(dim, 7, 8, 9, 10, 11, 12)
	ids := []int32{41, 42}
	body := commitRecord(9, dels, ins, ids)
	frame := appendFrame(nil, KindCommit, 9, body)

	rec, n, err := DecodeRecord(frame, dim)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d of %d", n, len(frame))
	}
	if rec.Kind != KindCommit || rec.Epoch != 9 {
		t.Fatalf("kind/epoch = %d/%d", rec.Kind, rec.Epoch)
	}
	if len(rec.Dels) != len(dels) {
		t.Fatalf("dels = %d", len(rec.Dels))
	}
	for i := range dels {
		if !bytes.Equal(f64bytes(rec.Dels[i].Data), f64bytes(dels[i].Data)) {
			t.Fatalf("del %d mismatch", i)
		}
	}
	if !bytes.Equal(f64bytes(rec.Ins.Data), f64bytes(ins.Data)) {
		t.Fatal("ins mismatch")
	}
	if len(rec.IDs) != 2 || rec.IDs[0] != 41 || rec.IDs[1] != 42 {
		t.Fatalf("ids = %v", rec.IDs)
	}
}

func f64bytes(v []float64) []byte {
	return appendCoords(nil, v)
}

func TestRecordRejectsCorruption(t *testing.T) {
	dim := 2
	frame := appendFrame(nil, KindCommit, 1, commitRecord(1, nil, pts(dim, 1, 2), []int32{7}))
	// Any single bit flip must be rejected (or, for length-field flips,
	// at worst fail as truncated — never decode successfully).
	for i := 0; i < len(frame)*8; i++ {
		mut := append([]byte(nil), frame...)
		mut[i/8] ^= 1 << (i % 8)
		if _, _, err := DecodeRecord(mut, dim); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	// Truncations at every length.
	for n := 0; n < len(frame); n++ {
		if _, _, err := DecodeRecord(frame[:n], dim); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
	// Wrong dim cannot pass the structural check silently.
	if rec, _, err := DecodeRecord(frame, 3); err == nil {
		t.Fatalf("dim mismatch accepted: %+v", rec)
	}
}

func TestLogAppendScan(t *testing.T) {
	fs := NewMemFS()
	dim := 2
	l, err := OpenLog(fs, "d", dim, LogOptions{SegmentSize: 1 << 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 5; e++ {
		var body []byte
		kind := byte(KindCommit)
		if e == 3 {
			kind = KindNote
		} else {
			body = commitRecord(e, nil, pts(dim, float64(e), 0), []int32{int32(e)})
		}
		lsn, err := l.Append(kind, e, body)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ScanLog(fs, "d", dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, r := range recs {
		if r.Epoch != uint64(i+1) {
			t.Fatalf("rec %d epoch %d", i, r.Epoch)
		}
	}
	if recs[2].Kind != KindNote {
		t.Fatal("epoch 3 should be a note")
	}
	// afterEpoch filtering.
	recs, err = ScanLog(fs, "d", dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Epoch != 4 {
		t.Fatalf("afterEpoch=3: %d recs", len(recs))
	}
}

func TestLogRotationAndPrune(t *testing.T) {
	fs := NewMemFS()
	dim := 2
	// Tiny segments: every record rotates.
	l, err := OpenLog(fs, "d", dim, LogOptions{SegmentSize: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 6; e++ {
		body := commitRecord(e, nil, pts(dim, float64(e), 0), []int32{int32(e)})
		if _, err := l.Append(KindCommit, e, body); err != nil {
			t.Fatal(err)
		}
	}
	seqs, _ := listSegments(fs, "d")
	if len(seqs) < 3 {
		t.Fatalf("expected rotations, got %d segments", len(seqs))
	}
	// Prune past epoch 4: segments fully below it must go, and the
	// surviving chain must still replay epochs 5..6.
	if err := l.PrunePast(4); err != nil {
		t.Fatal(err)
	}
	left, _ := listSegments(fs, "d")
	if len(left) >= len(seqs) {
		t.Fatalf("prune removed nothing (%d -> %d)", len(seqs), len(left))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ScanLog(fs, "d", dim, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Epoch != 5 || recs[1].Epoch != 6 {
		t.Fatalf("post-prune scan: %+v", recs)
	}
}

func TestScanDiscardsTornTail(t *testing.T) {
	fs := NewMemFS()
	dim := 2
	l, err := OpenLog(fs, "d", dim, LogOptions{SegmentSize: 1 << 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 3; e++ {
		lsn, err := l.Append(KindCommit, e, commitRecord(e, nil, pts(dim, float64(e), 0), []int32{int32(e)}))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the 4th record's write in half, then take the crash image
	// that keeps unsynced data: the torn frame is present on disk.
	fs.SetCrash(1, true)
	if _, err := l.Append(KindCommit, 4, commitRecord(4, nil, pts(dim, 4, 0), []int32{4})); !errors.Is(err, ErrCrash) {
		t.Fatalf("append after crash: %v", err)
	}
	img := fs.CrashImage(false)
	recs, err := ScanLog(img, "d", dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("torn tail not discarded: %d records", len(recs))
	}
	// The drop-unsynced image loses nothing acked either.
	recs, err = ScanLog(fs.CrashImage(true), "d", dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("drop-unsynced image: %d records", len(recs))
	}
}

func TestScanRejectsEpochGap(t *testing.T) {
	fs := NewMemFS()
	dim := 2
	l, err := OpenLog(fs, "d", dim, LogOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(KindCommit, 1, commitRecord(1, nil, pts(dim, 1, 0), []int32{1}))
	l.Append(KindCommit, 3, commitRecord(3, nil, pts(dim, 3, 0), []int32{3})) // gap: no epoch 2
	l.Close()
	if _, err := ScanLog(fs, "d", dim, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap not rejected: %v", err)
	}
	// A log whose first surviving record is past afterEpoch+1 is also a gap.
	fs2 := NewMemFS()
	l2, _ := OpenLog(fs2, "d", dim, LogOptions{}, 5)
	l2.Append(KindCommit, 5, commitRecord(5, nil, pts(dim, 5, 0), []int32{5}))
	l2.Close()
	if _, err := ScanLog(fs2, "d", dim, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("leading gap not rejected: %v", err)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	fs := NewMemFS()
	dim := 2
	l, err := OpenLog(fs, "d", dim, LogOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	errc := make(chan error, n)
	lsns := make(chan uint64, n)
	// Appends are serialized by the caller (consecutive epochs) but the
	// durability waits race: group commit must cover all of them.
	for e := uint64(1); e <= n; e++ {
		lsn, err := l.Append(KindCommit, e, commitRecord(e, nil, pts(dim, float64(e), 0), []int32{int32(e)}))
		if err != nil {
			t.Fatal(err)
		}
		lsns <- lsn
	}
	close(lsns)
	for lsn := range lsns {
		go func(lsn uint64) { errc <- l.WaitDurable(lsn) }(lsn)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ScanLog(fs, "d", dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("got %d records", len(recs))
	}
}

func TestLogPoisonAfterSyncFailure(t *testing.T) {
	fs := NewMemFS()
	dim := 2
	l, err := OpenLog(fs, "d", dim, LogOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(KindCommit, 1, commitRecord(1, nil, pts(dim, 1, 0), []int32{1}))
	if err != nil {
		t.Fatal(err)
	}
	fs.SetCrash(2, false) // next op is the write of record 2; op after is its fsync
	if _, err := l.Append(KindCommit, 2, commitRecord(2, nil, pts(dim, 2, 0), []int32{2})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn + 1); !errors.Is(err, ErrCrash) {
		t.Fatalf("sync failure not surfaced: %v", err)
	}
	// Sticky: everything afterwards fails.
	if _, err := l.Append(KindCommit, 3, nil); !errors.Is(err, ErrCrash) {
		t.Fatalf("log not poisoned: %v", err)
	}
	if err := l.WaitDurable(lsn); !errors.Is(err, ErrCrash) {
		t.Fatalf("poisoned WaitDurable: %v", err)
	}
}

func TestRelaxedSyncEvery(t *testing.T) {
	fs := NewMemFS()
	dim := 2
	l, err := OpenLog(fs, "d", dim, LogOptions{SyncEvery: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 10; e++ {
		lsn, err := l.Append(KindCommit, e, commitRecord(e, nil, pts(dim, float64(e), 0), []int32{int32(e)}))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil { // immediate in relaxed mode
			t.Fatal(err)
		}
	}
	// 10 records, sync every 4: epochs 1..8 are durable, 9..10 are not.
	img := fs.CrashImage(true)
	recs, err := ScanLog(img, "d", dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("relaxed mode: %d durable records, want 8", len(recs))
	}
	// Clean Close syncs the tail.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err = ScanLog(fs, "d", dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("after close: %d records, want 10", len(recs))
	}
}

// TestTailAndDurableEpoch pins the LSN↔epoch accounting that no-op
// commit acknowledgements lean on: the record at LSN i carries epoch
// baseEpoch+i, so DurableEpoch tracks the synced LSN exactly, in both
// sync modes and across an epoch base other than zero.
func TestTailAndDurableEpoch(t *testing.T) {
	fs := NewMemFS()
	dim := 2
	const base = uint64(40) // log opened as if recovery ended at epoch 40
	l, err := OpenLog(fs, "d", dim, LogOptions{SyncEvery: 4}, base+1)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.TailLSN(); got != 0 {
		t.Fatalf("fresh TailLSN = %d", got)
	}
	if got := l.DurableEpoch(); got != base {
		t.Fatalf("fresh DurableEpoch = %d, want %d", got, base)
	}
	for i := uint64(1); i <= 10; i++ {
		e := base + i
		lsn, err := l.Append(KindCommit, e, commitRecord(e, nil, pts(dim, float64(e), 0), []int32{int32(e)}))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != i || l.TailLSN() != i {
			t.Fatalf("append %d: lsn %d tail %d", i, lsn, l.TailLSN())
		}
		// Relaxed mode syncs inline every 4 records.
		wantDurable := base + i/4*4
		if got := l.DurableEpoch(); got != wantDurable {
			t.Fatalf("after append %d: DurableEpoch %d, want %d", i, got, wantDurable)
		}
	}
	if err := l.Close(); err != nil { // final fsync covers the tail
		t.Fatal(err)
	}
	if got := l.DurableEpoch(); got != base+10 {
		t.Fatalf("after close: DurableEpoch %d, want %d", got, base+10)
	}

	// Strict mode: WaitDurable advances the durable epoch to the waited
	// record.
	fs2 := NewMemFS()
	l2, err := OpenLog(fs2, "d", dim, LogOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l2.Append(KindCommit, 1, commitRecord(1, nil, pts(dim, 1, 0), []int32{1}))
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.DurableEpoch(); got != 0 {
		t.Fatalf("pre-wait DurableEpoch = %d", got)
	}
	if err := l2.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if got := l2.DurableEpoch(); got != 1 {
		t.Fatalf("post-wait DurableEpoch = %d, want 1", got)
	}
	l2.Close()
}

// TestPrunePastClosedRejected: a closed log must refuse to delete
// segments — its directory may already belong to a successor process's
// recovery scan.
func TestPrunePastClosedRejected(t *testing.T) {
	fs := NewMemFS()
	dim := 2
	l, err := OpenLog(fs, "d", dim, LogOptions{SegmentSize: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 6; e++ {
		if _, err := l.Append(KindCommit, e, commitRecord(e, nil, pts(dim, float64(e), 0), []int32{int32(e)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := listSegments(fs, "d")
	if err := l.PrunePast(6); !errors.Is(err, ErrClosed) {
		t.Fatalf("PrunePast on closed log: err = %v, want ErrClosed", err)
	}
	after, _ := listSegments(fs, "d")
	if len(before) != len(after) {
		t.Fatalf("PrunePast on closed log removed segments: %d -> %d", len(before), len(after))
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{2, 3, 5} {
		n := 200
		c := &Checkpoint{
			Epoch:   77,
			NextID:  int64(n) + 5,
			Dim:     dim,
			Shards:  4,
			HasPart: true,
			World:   geom.Box{Min: make([]float64, dim), Max: make([]float64, dim)},
			Bounds:  []uint64{100, 2000, 30000},
			Pts:     geom.Points{Data: make([]float64, n*dim), Dim: dim},
			IDs:     make([]int32, n),
		}
		for i := range c.World.Max {
			c.World.Max[i] = 1
		}
		for i := range c.Pts.Data {
			c.Pts.Data[i] = rng.NormFloat64()
		}
		for i := range c.IDs {
			c.IDs[i] = int32(i)
		}
		fs := NewMemFS()
		if err := writeWhole(fs, "d", c); err != nil {
			t.Fatal(err)
		}
		got, err := LoadLatestCheckpoint(fs, "d")
		if err != nil || got == nil {
			t.Fatalf("load: %v %v", got, err)
		}
		if got.Epoch != c.Epoch || got.NextID != c.NextID || got.Dim != dim || got.Shards != 4 || !got.HasPart {
			t.Fatalf("header mismatch: %+v", got)
		}
		if !bytes.Equal(f64bytes(got.Pts.Data), f64bytes(c.Pts.Data)) {
			t.Fatal("points mismatch")
		}
		if fmt.Sprint(got.Bounds) != fmt.Sprint(c.Bounds) || fmt.Sprint(got.IDs) != fmt.Sprint(c.IDs) {
			t.Fatal("bounds/ids mismatch")
		}
	}
}

func TestCheckpointCorruptFallsBack(t *testing.T) {
	fs := NewMemFS()
	good := &Checkpoint{Epoch: 5, NextID: 1, Dim: 2, Shards: 1, Pts: geom.Points{Dim: 2}}
	if err := writeWhole(fs, "d", good); err != nil {
		t.Fatal(err)
	}
	// A corrupt newer checkpoint (simulating e.g. media corruption).
	bad := (&Checkpoint{Epoch: 9, NextID: 1, Dim: 2, Shards: 1, Pts: geom.Points{Dim: 2}}).Encode(nil)
	bad[len(bad)-10] ^= 0xff
	f, _ := fs.Create(join("d", ckptName(9)))
	f.Write(bad)
	f.Close()
	got, err := LoadLatestCheckpoint(fs, "d")
	if err != nil || got == nil || got.Epoch != 5 {
		t.Fatalf("fallback failed: %+v %v", got, err)
	}
	// Pruning keeps the target epoch and clears tmp leftovers.
	f, _ = fs.Create(join("d", ckptName(3)+ckptTmp))
	f.Close()
	PruneCheckpoints(fs, "d", 5)
	names, _ := fs.ReadDir("d")
	for _, name := range names {
		if name == ckptName(5) || name == ckptName(9) {
			continue
		}
		t.Fatalf("prune left %s", name)
	}
}

func TestMemFSCrashMatrixSmoke(t *testing.T) {
	// Every crash point in a tiny workload must leave a recoverable log:
	// scan succeeds on both crash images and yields a prefix of the
	// acked epochs (plus possibly the in-flight one).
	dim := 2
	workload := func(fs *MemFS) (acked uint64) {
		l, err := OpenLog(fs, "d", dim, LogOptions{SegmentSize: 96}, 1)
		if err != nil {
			return 0
		}
		defer l.Close()
		for e := uint64(1); e <= 6; e++ {
			lsn, err := l.Append(KindCommit, e, commitRecord(e, nil, pts(dim, float64(e), 0), []int32{int32(e)}))
			if err != nil {
				return
			}
			if err := l.WaitDurable(lsn); err != nil {
				return
			}
			acked = e
		}
		return
	}
	probe := NewMemFS()
	workload(probe)
	total := probe.Ops()
	if total < 10 {
		t.Fatalf("workload too small to be interesting: %d ops", total)
	}
	for n := 1; n <= total; n++ {
		for _, torn := range []bool{false, true} {
			for _, drop := range []bool{false, true} {
				fs := NewMemFS()
				fs.SetCrash(n, torn)
				acked := workload(fs)
				if !fs.Crashed() {
					t.Fatalf("crash %d not reached", n)
				}
				recs, err := ScanLog(fs.CrashImage(drop), "d", dim, 0)
				if err != nil {
					t.Fatalf("crash=%d torn=%v drop=%v: scan: %v", n, torn, drop, err)
				}
				got := uint64(len(recs))
				if got < acked || got > acked+1 {
					t.Fatalf("crash=%d torn=%v drop=%v: %d records, acked %d", n, torn, drop, got, acked)
				}
			}
		}
	}
}
