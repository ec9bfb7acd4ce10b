package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strconv"
	"strings"

	"pargeo/internal/geom"
)

// Checkpoint file layout, little-endian, CRC-trailed:
//
//	[8]  magic "PGCKPT01"
//	[8]  epoch
//	[8]  nextID
//	[4]  dim
//	[4]  shards (engine shard count at checkpoint time)
//	[1]  hasPart
//	if hasPart:
//	  dim×[8] world.Min, dim×[8] world.Max
//	  [4] nbounds, nbounds×[8] bounds
//	[8]  npts
//	npts×[4] ids
//	npts×dim×[8] coords
//	[4]  CRC32-C of everything above
//
// Points are stored flat, in whatever order the writer's source yielded
// them — the engine yields shard by shard, each shard's levels in turn,
// each level in its own kd leaf order — and ids[i] belongs to row i of
// coords. The order carries no meaning: shard membership is a pure function
// of a point's coordinates and the stored partition, so restore re-routes
// every row through the partition and rebuilds each shard with
// NewFromSorted, which re-orders them again — no per-shard framing needed.
const (
	ckptMagic   = "PGCKPT01"
	ckptPrefix  = "ckpt-"
	ckptSuffix  = ".ckpt"
	ckptTmp     = ".tmp"
	ckptMinSize = 8 + 8 + 8 + 4 + 4 + 1 + 8 + 4

	// ckptChunk is the one buffer a checkpoint is written through.
	ckptChunk = 64 << 10

	// maxCkptDim bounds the dimension read from a checkpoint header so a
	// corrupt file cannot size allocations from garbage. Far above any
	// dimension the engine supports.
	maxCkptDim = 1 << 10
)

// Checkpoint is a full durable image of the engine's state at Epoch:
// the live point set with ids, the id-generator watermark, and the
// Morton partition (absent only for an engine that never committed —
// HasPart false, no points).
type Checkpoint struct {
	Epoch  uint64
	NextID int64
	Dim    int
	Shards int

	HasPart bool
	World   geom.Box
	Bounds  []uint64

	Pts geom.Points
	IDs []int32
}

func ckptName(epoch uint64) string { return fmt.Sprintf("%s%016x%s", ckptPrefix, epoch, ckptSuffix) }

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	epoch, err := strconv.ParseUint(name[len(ckptPrefix):len(name)-len(ckptSuffix)], 16, 64)
	return epoch, err == nil
}

// appendHeader appends everything that precedes the ids of an npts-point
// checkpoint.
func (c *Checkpoint) appendHeader(dst []byte, npts int) []byte {
	dst = append(dst, ckptMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, c.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.NextID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Shards))
	if c.HasPart {
		dst = append(dst, 1)
		dst = appendCoords(dst, c.World.Min)
		dst = appendCoords(dst, c.World.Max)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Bounds)))
		for _, b := range c.Bounds {
			dst = binary.LittleEndian.AppendUint64(dst, b)
		}
	} else {
		dst = append(dst, 0)
	}
	return binary.LittleEndian.AppendUint64(dst, uint64(npts))
}

// Encode serializes the checkpoint with c.Pts and c.IDs as its points, in
// memory, appending to dst: the decoder's test oracle. Files are written by
// WriteCheckpoint, which produces the same bytes without holding them.
func (c *Checkpoint) Encode(dst []byte) []byte {
	start := len(dst)
	dst = c.appendHeader(dst, len(c.IDs))
	for _, id := range c.IDs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	dst = appendCoords(dst, c.Pts.Data)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// DecodeCheckpoint parses a checkpoint file. Like DecodeRecord it is
// hardened against arbitrary input: every count is validated against the
// remaining bytes before it sizes an allocation, nothing is read past
// len(b), and no checkpoint is returned unless the trailing CRC (which
// covers the whole file) verifies.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < ckptMinSize {
		return nil, fmt.Errorf("%w: checkpoint too short", ErrCorrupt)
	}
	if string(b[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	body, crcBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: checkpoint CRC mismatch", ErrCorrupt)
	}
	c := &Checkpoint{}
	off := 8
	u32 := func() (uint32, bool) {
		if len(body)-off < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(body[off:])
		off += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if len(body)-off < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(body[off:])
		off += 8
		return v, true
	}
	epoch, ok1 := u64()
	nextID, ok2 := u64()
	dim32, ok3 := u32()
	shards32, ok4 := u32()
	if !ok1 || !ok2 || !ok3 || !ok4 || len(body)-off < 1 {
		return nil, fmt.Errorf("%w: truncated checkpoint header", ErrCorrupt)
	}
	c.Epoch, c.NextID = epoch, int64(nextID)
	c.Dim, c.Shards = int(dim32), int(shards32)
	if c.Dim < 1 || c.Dim > maxCkptDim || c.Shards < 1 || c.Shards > maxCkptDim {
		return nil, fmt.Errorf("%w: implausible dim %d / shards %d", ErrCorrupt, c.Dim, c.Shards)
	}
	hasPart := body[off]
	off++
	if hasPart > 1 {
		return nil, fmt.Errorf("%w: bad hasPart byte", ErrCorrupt)
	}
	c.HasPart = hasPart == 1
	if c.HasPart {
		if len(body)-off < 2*c.Dim*8 {
			return nil, fmt.Errorf("%w: truncated world box", ErrCorrupt)
		}
		c.World.Min, _ = decodeCoords(body[off:], c.Dim)
		off += c.Dim * 8
		c.World.Max, _ = decodeCoords(body[off:], c.Dim)
		off += c.Dim * 8
		nb, ok := u32()
		if !ok || uint64(nb)*8 > uint64(len(body)-off) {
			return nil, fmt.Errorf("%w: truncated partition bounds", ErrCorrupt)
		}
		c.Bounds = make([]uint64, nb)
		for i := range c.Bounds {
			c.Bounds[i] = binary.LittleEndian.Uint64(body[off:])
			off += 8
		}
	}
	npts, ok := u64()
	// Division avoids overflow for adversarial 64-bit counts.
	if !ok || npts > uint64(len(body)-off)/uint64(4+c.Dim*8) {
		return nil, fmt.Errorf("%w: point count overruns checkpoint", ErrCorrupt)
	}
	c.IDs = make([]int32, npts)
	for i := range c.IDs {
		c.IDs[i] = int32(binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	data, n := decodeCoords(body[off:], int(npts)*c.Dim)
	off += n
	c.Pts = geom.Points{Data: data, Dim: c.Dim}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing checkpoint bytes", ErrCorrupt, len(body)-off)
	}
	return c, nil
}

// ckptWriter streams a checkpoint file through one ckptChunk-sized buffer,
// folding every flushed chunk into the running CRC. After a failed write it
// keeps accepting bytes and drops them.
type ckptWriter struct {
	f   File
	buf []byte
	crc uint32
	err error
}

func (w *ckptWriter) flush() {
	if w.err == nil {
		w.crc = crc32.Update(w.crc, crcTable, w.buf)
		_, w.err = w.f.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// room flushes unless n more bytes fit the buffer.
func (w *ckptWriter) room(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
}

// WriteCheckpoint durably writes a checkpoint into dir: the header fields
// of c (c.Pts and c.IDs are not read) and the npts points that src yields.
// src is called twice — the file holds every id before the first coordinate
// — and must hand yield the same runs of rows both times, coords holding
// len(ids) rows; yield retains neither slice. Memory is one ckptChunk
// buffer whatever npts is. A source that yields more or fewer than npts
// rows fails the write. The file is written and synced under a temporary
// name, then atomically renamed to ckpt-<epoch>.ckpt, so a crash or a
// failure at any point leaves either no visible checkpoint for this epoch
// or a complete one — never a partial file under the final name.
func WriteCheckpoint(fs VFS, dir string, c *Checkpoint, npts int, src func(yield func(coords []float64, ids []int32))) error {
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	final := join(dir, ckptName(c.Epoch))
	tmp := final + ckptTmp
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	w := &ckptWriter{f: f, buf: make([]byte, 0, ckptChunk)}
	w.buf = c.appendHeader(w.buf, npts)
	nids, ncoords := 0, 0
	src(func(_ []float64, ids []int32) {
		nids += len(ids)
		for _, id := range ids {
			w.room(4)
			w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(id))
		}
	})
	src(func(coords []float64, _ []int32) {
		ncoords += len(coords)
		for _, v := range coords {
			w.room(8)
			w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
		}
	})
	w.flush()
	err = w.err
	if err == nil && (nids != npts || ncoords != npts*c.Dim) {
		err = fmt.Errorf("wal: checkpoint source yielded %d ids and %d coordinates for %d dim-%d points", nids, ncoords, npts, c.Dim)
	}
	if err == nil {
		_, err = f.Write(binary.LittleEndian.AppendUint32(w.buf, w.crc))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp) // best effort; PruneCheckpoints sweeps leftovers
		return err
	}
	return fs.Rename(tmp, final)
}

// listCheckpoints returns the checkpoint epochs present in dir,
// ascending. Temporary files are ignored.
func listCheckpoints(fs VFS, dir string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var epochs []uint64
	for _, name := range names {
		if epoch, ok := parseCkptName(name); ok {
			epochs = append(epochs, epoch)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

// LoadLatestCheckpoint returns the highest-epoch checkpoint in dir that
// decodes cleanly, or nil if none exists. A corrupt newer checkpoint is
// skipped in favor of an older valid one — recovery then relies on the
// WAL chain to bridge the difference, and fails loudly if it cannot.
func LoadLatestCheckpoint(fs VFS, dir string) (*Checkpoint, error) {
	epochs, err := listCheckpoints(fs, dir)
	if err != nil {
		return nil, err
	}
	for i := len(epochs) - 1; i >= 0; i-- {
		b, err := fs.ReadFile(join(dir, ckptName(epochs[i])))
		if err != nil {
			continue
		}
		c, err := DecodeCheckpoint(b)
		if err != nil {
			continue
		}
		return c, nil
	}
	return nil, nil
}

// PruneCheckpoints removes checkpoints older than keepEpoch and any
// leftover temporary files. Failures are ignored: stale checkpoints are
// only wasted space, and the next prune retries.
func PruneCheckpoints(fs VFS, dir string, keepEpoch uint64) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if strings.HasSuffix(name, ckptTmp) {
			fs.Remove(join(dir, name))
			continue
		}
		if epoch, ok := parseCkptName(name); ok && epoch < keepEpoch {
			fs.Remove(join(dir, name))
		}
	}
}
