package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"pargeo/internal/geom"
)

// ckptSource yields c's own points in runs of the given lengths (the last
// run takes the rest), the way the engine yields level after level.
func ckptSource(c *Checkpoint, runs ...int) func(yield func([]float64, []int32)) {
	return func(yield func([]float64, []int32)) {
		lo := 0
		for _, n := range append(runs, len(c.IDs)) {
			hi := min(lo+n, len(c.IDs))
			yield(c.Pts.Data[lo*c.Dim:hi*c.Dim], c.IDs[lo:hi])
			lo = hi
		}
	}
}

// writeWhole writes c with c.Pts and c.IDs as its points, in one run.
func writeWhole(fs VFS, dir string, c *Checkpoint) error {
	return WriteCheckpoint(fs, dir, c, len(c.IDs), ckptSource(c))
}

// bigCheckpoint holds n random dim-2 points: past 16 384 of them the ids
// alone outgrow one ckptChunk buffer, and the coordinates four times over.
func bigCheckpoint(epoch uint64, n int) *Checkpoint {
	rng := rand.New(rand.NewSource(int64(epoch)))
	c := &Checkpoint{
		Epoch: epoch, NextID: int64(n), Dim: 2, Shards: 3, HasPart: true,
		World:  geom.Box{Min: []float64{-4, -4}, Max: []float64{4, 4}},
		Bounds: []uint64{1 << 20, 1 << 40},
		Pts:    geom.Points{Data: make([]float64, 2*n), Dim: 2},
		IDs:    make([]int32, n),
	}
	for i := range c.Pts.Data {
		c.Pts.Data[i] = rng.NormFloat64()
	}
	for i := range c.IDs {
		c.IDs[i] = rng.Int31()
	}
	return c
}

// TestWriteCheckpointStreamsEncodeBytes: the streamed file is Encode of the
// same points in the same order, byte for byte — so DecodeCheckpoint and
// its fuzz corpus see nothing new — for an empty set, for one buffer's
// worth, and for sets whose ids pass and coords pass each flush mid-pass,
// yielded in runs that straddle the flushes.
func TestWriteCheckpointStreamsEncodeBytes(t *testing.T) {
	for _, tc := range []struct {
		n    int
		runs []int
	}{
		{0, nil},
		{200, []int{1, 64, 0, 100}},
		{ckptChunk/4 + 1, nil},
		{40_000, []int{64, 16_321, 7, 16_384, 1}},
	} {
		c := bigCheckpoint(uint64(tc.n)+1, tc.n)
		if tc.n >= 40_000 && (4*tc.n <= ckptChunk || 16*tc.n <= ckptChunk) {
			t.Fatalf("%d points do not overflow the buffer in both passes", tc.n)
		}
		fs := NewMemFS()
		if err := WriteCheckpoint(fs, "d", c, tc.n, ckptSource(c, tc.runs...)); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		got, err := fs.ReadFile(join("d", ckptName(c.Epoch)))
		if err != nil {
			t.Fatal(err)
		}
		if want := c.Encode(nil); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: streamed %d bytes differ from Encode's %d", tc.n, len(got), len(want))
		}
		if names, _ := fs.ReadDir("d"); len(names) != 1 {
			t.Fatalf("n=%d: directory holds %v", tc.n, names)
		}
		// n=40 000: header + 160 000 B of ids + 640 000 B of coords is 13
		// buffers, the last partial; then the CRC.
		if tc.n == 40_000 && fs.Ops() != 1+13+1+1+1 {
			t.Fatalf("n=%d took %d file operations, want create + 13 chunks + crc + sync + rename", tc.n, fs.Ops())
		}
	}
}

// TestWriteCheckpointRejectsMiscountingSource: a source that yields fewer
// or more rows than announced — in either pass — fails the write and
// leaves nothing under the final name (nor a temporary file).
func TestWriteCheckpointRejectsMiscountingSource(t *testing.T) {
	c := bigCheckpoint(9, 20_000)
	short := *c
	short.IDs, short.Pts = c.IDs[:19_999], c.Pts.Slice(0, 19_999)
	ragged := func(yield func([]float64, []int32)) { yield(c.Pts.Data[:39_998], c.IDs) }
	for name, tc := range map[string]struct {
		npts int
		src  func(func([]float64, []int32))
	}{
		"fewer":        {20_000, ckptSource(&short, 5_000)},
		"more":         {19_999, ckptSource(c, 5_000)},
		"fewer coords": {20_000, ragged},
	} {
		fs := NewMemFS()
		if err := WriteCheckpoint(fs, "d", c, tc.npts, tc.src); err == nil {
			t.Fatalf("%s: write succeeded", name)
		}
		if names, _ := fs.ReadDir("d"); len(names) != 0 {
			t.Fatalf("%s: failed write left %v", name, names)
		}
		if got, err := LoadLatestCheckpoint(fs, "d"); got != nil || err != nil {
			t.Fatalf("%s: loaded %+v, %v after a failed write", name, got, err)
		}
	}
}

// TestWriteCheckpointCrashBetweenChunks: a crash at every file operation of
// a multi-chunk checkpoint — torn or whole, unsynced data kept or lost —
// leaves the previous checkpoint the newest one that loads.
func TestWriteCheckpointCrashBetweenChunks(t *testing.T) {
	prev, next := bigCheckpoint(5, 300), bigCheckpoint(8, 40_000)
	probe := NewMemFS()
	if err := writeWhole(probe, "d", next); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	for op := 1; op <= total; op++ {
		for _, torn := range []bool{false, true} {
			fs := NewMemFS()
			if err := writeWhole(fs, "d", prev); err != nil {
				t.Fatal(err)
			}
			fs.SetCrash(op, torn)
			if err := writeWhole(fs, "d", next); !errors.Is(err, ErrCrash) {
				t.Fatalf("op %d: err = %v, want the injected crash", op, err)
			}
			for _, drop := range []bool{false, true} {
				got, err := LoadLatestCheckpoint(fs.CrashImage(drop), "d")
				if err != nil || got == nil || got.Epoch != prev.Epoch || len(got.IDs) != 300 {
					t.Fatalf("op %d torn=%v drop=%v: loaded %+v, %v", op, torn, drop, got, err)
				}
			}
		}
	}
}
