// Package wire is the engine's network protocol: length-prefixed,
// CRC-framed request/response records, the same framing discipline as the
// write-ahead log in internal/wal. A frame is
//
//	[4] payload length (little-endian)
//	[4] CRC32 (Castagnoli) of payload
//	payload
//
// and a payload opens with the operation byte and a caller-chosen 64-bit
// request id echoed verbatim in the response — connections multiplex any
// number of in-flight requests and responses may arrive out of order.
//
// Request payload:
//
//	[1] op
//	[8] request id
//	op-specific body:
//	  Hello                 (empty)
//	  KNN                   [8] as-of epoch (0 = live),
//	                        [4] k, [4] n, n×dim×[8] query coords
//	  Range / RangeCount    [8] as-of epoch (0 = live),
//	                        dim×[8] box min, dim×[8] box max
//	  Update                [4] nins, nins×dim×[8] coords,
//	                        [4] ndel, ndel×dim×[8] coords
//	  Epoch / Checkpoint / Stats  (empty)
//	  Pin                   [8] epoch (0 = pin the latest commit)
//	  Unpin                 [8] epoch
//
// The read ops carry an as-of epoch: zero (the common case) answers from
// the live snapshot, nonzero answers from that exact retained or pinned
// epoch — StatusNotRetained when the server no longer holds it. Pin makes
// an epoch durable against the server's retention GC for the LIFETIME OF
// THE CONNECTION: the server releases a connection's surviving pins when
// the connection closes, and pins never survive a server restart.
//
// Response payload:
//
//	[1] op (echoes the request's)
//	[8] request id
//	[1] status
//	status = Overloaded: [4] retry-after hint (milliseconds),
//	                     [4] message length, message bytes
//	status ≠ OK (other): [4] message length, message bytes
//	status = OK, op-specific body:
//	  Hello        [4] dim, [4] shards
//	  KNN          [4] n, n × { [4] m, m×[4] neighbor ids }
//	  Range        [4] m, m×[4] ids
//	  RangeCount   [8] count
//	  Update       [4] nids, nids×[4] ids, [8] deleted, [8] epoch
//	  Epoch        [8] epoch
//	  Checkpoint   [8] epoch
//	  Stats        [4] n, n × { [2] name length, name bytes, [8] value }
//	  Pin          [8] epoch pinned
//	  Unpin        [8] epoch released
//
// The point dimensionality is a property of the connection, established
// by the Hello exchange (the server's engine fixes it), and is passed to
// the decoders rather than carried per frame — exactly like the WAL's
// records. Decoders validate every length against the remaining bytes
// before sizing any allocation from it, never read past the input, and
// only ever return CRC-verified data that re-encodes byte-identically.
//
// For where this protocol sits in the whole system — the layer diagram
// and the request lifecycles through client, server, engine, and WAL —
// see docs/ARCHITECTURE.md at the repository root.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"pargeo/internal/geom"
)

// Operations.
const (
	OpHello byte = iota + 1
	OpKNN
	OpRange
	OpRangeCount
	OpUpdate
	OpEpoch
	OpCheckpoint
	OpStats
	OpPin
	OpUnpin

	opMax = OpUnpin
)

// Response status codes. The codes are the wire form of the engine's
// typed errors: clients map StatusClosed back to their typed
// server-closed error rather than matching message strings.
const (
	StatusOK          byte = 0 // op-specific body follows
	StatusClosed      byte = 1 // engine closed (engine.ErrClosed)
	StatusError       byte = 2 // any other engine/server failure
	StatusOverloaded  byte = 3 // shed by admission control; retry-after hint follows
	StatusNotRetained byte = 4 // as-of / pin epoch outside the retention window (engine.ErrEpochNotRetained)
)

const (
	frameHeaderSize = 8
	reqMinSize      = 9  // op + id
	respMinSize     = 10 // op + id + status

	// MaxFrameSize bounds one frame's payload; decoders and ReadFrame
	// reject larger length prefixes before allocating, so a corrupt or
	// hostile length cannot trigger a huge allocation.
	MaxFrameSize = 1 << 28

	// maxDim mirrors the WAL checkpoint's plausibility bound on point
	// dimensionality.
	maxDim = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a structurally invalid frame or payload.
var ErrCorrupt = errors.New("wire: corrupt frame")

// Request is one decoded client request.
type Request struct {
	Op byte
	ID uint64

	K       int32       // OpKNN
	Queries geom.Points // OpKNN
	Box     geom.Box    // OpRange, OpRangeCount
	Ins     geom.Points // OpUpdate
	Del     geom.Points // OpUpdate

	// AsOf is the time-travel epoch of a read op (OpKNN, OpRange,
	// OpRangeCount): 0 answers from the live snapshot, nonzero from that
	// exact retained or pinned epoch.
	AsOf uint64
	// Epoch is OpPin's target (0 = pin the latest commit) and OpUnpin's
	// required epoch to release.
	Epoch uint64
}

// Response is one decoded server response.
type Response struct {
	Op     byte
	ID     uint64
	Status byte
	ErrMsg string // Status ≠ StatusOK

	// RetryAfterMillis is the server's backoff hint on a StatusOverloaded
	// response: roughly one current service time for the shed request's
	// class, so a well-behaved client retries after the congestion it
	// observed has had a chance to drain. Zero on every other status.
	RetryAfterMillis uint32

	Dim       int32     // OpHello
	Shards    int32     // OpHello
	Neighbors [][]int32 // OpKNN: per-query neighbor ids
	IDs       []int32   // OpRange results; OpUpdate assigned ids
	Count     uint64    // OpRangeCount
	Deleted   uint64    // OpUpdate
	Epoch     uint64    // OpUpdate, OpEpoch, OpCheckpoint; OpPin/OpUnpin: the epoch pinned/released
	Stats     []Stat    // OpStats
}

// Stat is one named counter of a Stats response.
type Stat struct {
	Name  string
	Value uint64
}

// beginFrame grows dst once for a frame of at most size payload bytes and
// reserves its header. The payload is appended after it in place, and
// sealFrame(dst, start) stamps the header once it is complete.
func beginFrame(dst []byte, size int) ([]byte, int) {
	dst = slices.Grow(dst, frameHeaderSize+size)
	start := len(dst)
	return append(dst, make([]byte, frameHeaderSize)...), start
}

// sealFrame writes the length and CRC of the frame that starts at start
// and runs to the end of dst.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// Complete reports whether buf opens with a whole frame: a header and
// the payload its length prefix declares. A reader holding a complete
// frame can read it without blocking.
func Complete(buf []byte) bool {
	return len(buf) >= frameHeaderSize && uint64(len(buf)-frameHeaderSize) >= uint64(binary.LittleEndian.Uint32(buf))
}

func appendCoords(dst []byte, data []float64) []byte {
	for _, v := range data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// appendPoints appends [4]rows + coords; rows is derived from the data,
// so an encoded batch is always self-consistent.
func appendPoints(dst []byte, p geom.Points) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Len()))
	return appendCoords(dst, p.Data)
}

// AppendRequest appends r as one complete frame to dst.
func AppendRequest(dst []byte, r *Request) []byte {
	p, start := beginFrame(dst, reqMinSize+16+8*(len(r.Queries.Data)+len(r.Ins.Data)+len(r.Del.Data)+len(r.Box.Min)+len(r.Box.Max)))
	p = append(p, r.Op)
	p = binary.LittleEndian.AppendUint64(p, r.ID)
	switch r.Op {
	case OpKNN:
		p = binary.LittleEndian.AppendUint64(p, r.AsOf)
		p = binary.LittleEndian.AppendUint32(p, uint32(r.K))
		p = appendPoints(p, r.Queries)
	case OpRange, OpRangeCount:
		p = binary.LittleEndian.AppendUint64(p, r.AsOf)
		p = appendCoords(p, r.Box.Min)
		p = appendCoords(p, r.Box.Max)
	case OpUpdate:
		p = appendPoints(p, r.Ins)
		p = appendPoints(p, r.Del)
	case OpPin, OpUnpin:
		p = binary.LittleEndian.AppendUint64(p, r.Epoch)
	}
	return sealFrame(p, start)
}

// AppendResponse appends r as one complete frame to dst.
func AppendResponse(dst []byte, r *Response) []byte {
	size := respMinSize + 32 + 4*len(r.IDs) + len(r.ErrMsg)
	for _, ids := range r.Neighbors {
		size += 4 + 4*len(ids)
	}
	for _, st := range r.Stats {
		size += 10 + len(st.Name)
	}
	p, start := beginFrame(dst, size)
	p = append(p, r.Op)
	p = binary.LittleEndian.AppendUint64(p, r.ID)
	p = append(p, r.Status)
	if r.Status != StatusOK {
		if r.Status == StatusOverloaded {
			p = binary.LittleEndian.AppendUint32(p, r.RetryAfterMillis)
		}
		p = binary.LittleEndian.AppendUint32(p, uint32(len(r.ErrMsg)))
		p = append(p, r.ErrMsg...)
		return sealFrame(p, start)
	}
	switch r.Op {
	case OpHello:
		p = binary.LittleEndian.AppendUint32(p, uint32(r.Dim))
		p = binary.LittleEndian.AppendUint32(p, uint32(r.Shards))
	case OpKNN:
		p = binary.LittleEndian.AppendUint32(p, uint32(len(r.Neighbors)))
		for _, ids := range r.Neighbors {
			p = appendIDs(p, ids)
		}
	case OpRange:
		p = appendIDs(p, r.IDs)
	case OpRangeCount:
		p = binary.LittleEndian.AppendUint64(p, r.Count)
	case OpUpdate:
		p = appendIDs(p, r.IDs)
		p = binary.LittleEndian.AppendUint64(p, r.Deleted)
		p = binary.LittleEndian.AppendUint64(p, r.Epoch)
	case OpEpoch, OpCheckpoint, OpPin, OpUnpin:
		p = binary.LittleEndian.AppendUint64(p, r.Epoch)
	case OpStats:
		p = binary.LittleEndian.AppendUint32(p, uint32(len(r.Stats)))
		for _, s := range r.Stats {
			p = binary.LittleEndian.AppendUint16(p, uint16(len(s.Name)))
			p = append(p, s.Name...)
			p = binary.LittleEndian.AppendUint64(p, s.Value)
		}
	}
	return sealFrame(p, start)
}

func appendIDs(dst []byte, ids []int32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// frame validates the outer frame of buf and returns its payload and the
// bytes consumed.
func frame(buf []byte, minPayload int) ([]byte, int, error) {
	if len(buf) < frameHeaderSize {
		return nil, 0, fmt.Errorf("%w: short frame header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(buf)
	if n < uint32(minPayload) || n > MaxFrameSize {
		return nil, 0, fmt.Errorf("%w: bad payload length %d", ErrCorrupt, n)
	}
	if uint64(len(buf)-frameHeaderSize) < uint64(n) {
		return nil, 0, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	payload := buf[frameHeaderSize : frameHeaderSize+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, frameHeaderSize + int(n), nil
}

// body is a bounds-checked cursor over a payload body.
type body struct {
	b   []byte
	off int
}

func (c *body) u16() (uint16, bool) {
	if len(c.b)-c.off < 2 {
		return 0, false
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v, true
}

func (c *body) u32() (uint32, bool) {
	if len(c.b)-c.off < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, true
}

func (c *body) u64() (uint64, bool) {
	if len(c.b)-c.off < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, true
}

func (c *body) rest() int { return len(c.b) - c.off }

// coords decodes count float64s, caller having validated the length.
func (c *body) coords(count int) []float64 {
	data := make([]float64, count)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off+i*8:]))
	}
	c.off += count * 8
	return data
}

// points decodes one [4]rows+coords batch, validating rows first.
func (c *body) points(dim int, what string) (geom.Points, error) {
	rows, ok := c.u32()
	if !ok {
		return geom.Points{}, fmt.Errorf("%w: missing %s rows", ErrCorrupt, what)
	}
	if uint64(rows)*uint64(dim)*8 > uint64(c.rest()) {
		return geom.Points{}, fmt.Errorf("%w: %s batch overruns", ErrCorrupt, what)
	}
	return geom.Points{Data: c.coords(int(rows) * dim), Dim: dim}, nil
}

// ids decodes one [4]count+ids list, validating count first.
func (c *body) ids(what string) ([]int32, error) {
	count, ok := c.u32()
	if !ok {
		return nil, fmt.Errorf("%w: missing %s count", ErrCorrupt, what)
	}
	if uint64(count)*4 > uint64(c.rest()) {
		return nil, fmt.Errorf("%w: %s ids overrun", ErrCorrupt, what)
	}
	if count == 0 {
		return nil, nil
	}
	ids := make([]int32, count)
	for i := range ids {
		v, _ := c.u32()
		ids[i] = int32(v)
	}
	return ids, nil
}

// DecodeRequest decodes one request frame from the front of buf. Any
// structural problem returns ErrCorrupt with consumed 0.
func DecodeRequest(buf []byte, dim int) (Request, int, error) {
	if dim <= 0 || dim > maxDim {
		return Request{}, 0, fmt.Errorf("%w: implausible dim %d", ErrCorrupt, dim)
	}
	payload, n, err := frame(buf, reqMinSize)
	if err != nil {
		return Request{}, 0, err
	}
	var r Request
	r.Op = payload[0]
	r.ID = binary.LittleEndian.Uint64(payload[1:])
	c := &body{b: payload[reqMinSize:]}
	switch r.Op {
	case OpHello, OpEpoch, OpCheckpoint, OpStats:
		// No body.
	case OpKNN:
		asof, ok := c.u64()
		if !ok {
			return Request{}, 0, fmt.Errorf("%w: KNN missing as-of epoch", ErrCorrupt)
		}
		r.AsOf = asof
		k, ok := c.u32()
		if !ok {
			return Request{}, 0, fmt.Errorf("%w: KNN missing k", ErrCorrupt)
		}
		r.K = int32(k)
		if r.Queries, err = c.points(dim, "KNN query"); err != nil {
			return Request{}, 0, err
		}
	case OpRange, OpRangeCount:
		asof, ok := c.u64()
		if !ok {
			return Request{}, 0, fmt.Errorf("%w: range missing as-of epoch", ErrCorrupt)
		}
		r.AsOf = asof
		if c.rest() != 2*dim*8 {
			return Request{}, 0, fmt.Errorf("%w: range box size %d, want %d", ErrCorrupt, c.rest(), 2*dim*8)
		}
		r.Box.Min = c.coords(dim)
		r.Box.Max = c.coords(dim)
	case OpPin, OpUnpin:
		epoch, ok := c.u64()
		if !ok {
			return Request{}, 0, fmt.Errorf("%w: pin op missing epoch", ErrCorrupt)
		}
		r.Epoch = epoch
	case OpUpdate:
		if r.Ins, err = c.points(dim, "insert"); err != nil {
			return Request{}, 0, err
		}
		if r.Del, err = c.points(dim, "delete"); err != nil {
			return Request{}, 0, err
		}
	default:
		return Request{}, 0, fmt.Errorf("%w: unknown request op %d", ErrCorrupt, r.Op)
	}
	if c.rest() != 0 {
		return Request{}, 0, fmt.Errorf("%w: request op %d: %d trailing bytes", ErrCorrupt, r.Op, c.rest())
	}
	return r, n, nil
}

// DecodeResponse decodes one response frame from the front of buf. Any
// structural problem returns ErrCorrupt with consumed 0.
func DecodeResponse(buf []byte, dim int) (Response, int, error) {
	if dim <= 0 || dim > maxDim {
		return Response{}, 0, fmt.Errorf("%w: implausible dim %d", ErrCorrupt, dim)
	}
	payload, n, err := frame(buf, respMinSize)
	if err != nil {
		return Response{}, 0, err
	}
	var r Response
	r.Op = payload[0]
	r.ID = binary.LittleEndian.Uint64(payload[1:])
	r.Status = payload[9]
	if r.Op < OpHello || r.Op > opMax {
		return Response{}, 0, fmt.Errorf("%w: unknown response op %d", ErrCorrupt, r.Op)
	}
	c := &body{b: payload[respMinSize:]}
	if r.Status != StatusOK {
		if r.Status != StatusClosed && r.Status != StatusError && r.Status != StatusOverloaded && r.Status != StatusNotRetained {
			return Response{}, 0, fmt.Errorf("%w: unknown status %d", ErrCorrupt, r.Status)
		}
		if r.Status == StatusOverloaded {
			hint, ok := c.u32()
			if !ok {
				return Response{}, 0, fmt.Errorf("%w: overloaded response missing retry hint", ErrCorrupt)
			}
			r.RetryAfterMillis = hint
		}
		m, ok := c.u32()
		if !ok || uint64(m) > uint64(c.rest()) {
			return Response{}, 0, fmt.Errorf("%w: error message overruns", ErrCorrupt)
		}
		r.ErrMsg = string(c.b[c.off : c.off+int(m)])
		c.off += int(m)
		if c.rest() != 0 {
			return Response{}, 0, fmt.Errorf("%w: error response: %d trailing bytes", ErrCorrupt, c.rest())
		}
		return r, n, nil
	}
	switch r.Op {
	case OpHello:
		d, ok := c.u32()
		s, ok2 := c.u32()
		if !ok || !ok2 {
			return Response{}, 0, fmt.Errorf("%w: short hello", ErrCorrupt)
		}
		r.Dim, r.Shards = int32(d), int32(s)
	case OpKNN:
		nq, ok := c.u32()
		if !ok {
			return Response{}, 0, fmt.Errorf("%w: KNN missing query count", ErrCorrupt)
		}
		// Each per-query list needs ≥4 bytes for its own count.
		if uint64(nq)*4 > uint64(c.rest()) {
			return Response{}, 0, fmt.Errorf("%w: KNN query count %d overruns", ErrCorrupt, nq)
		}
		if nq > 0 {
			r.Neighbors = make([][]int32, nq)
			for i := range r.Neighbors {
				if r.Neighbors[i], err = c.ids("neighbor"); err != nil {
					return Response{}, 0, err
				}
			}
		}
	case OpRange:
		if r.IDs, err = c.ids("range"); err != nil {
			return Response{}, 0, err
		}
	case OpRangeCount:
		v, ok := c.u64()
		if !ok {
			return Response{}, 0, fmt.Errorf("%w: short range count", ErrCorrupt)
		}
		r.Count = v
	case OpUpdate:
		if r.IDs, err = c.ids("update"); err != nil {
			return Response{}, 0, err
		}
		del, ok := c.u64()
		ep, ok2 := c.u64()
		if !ok || !ok2 {
			return Response{}, 0, fmt.Errorf("%w: short update result", ErrCorrupt)
		}
		r.Deleted, r.Epoch = del, ep
	case OpEpoch, OpCheckpoint, OpPin, OpUnpin:
		v, ok := c.u64()
		if !ok {
			return Response{}, 0, fmt.Errorf("%w: short epoch", ErrCorrupt)
		}
		r.Epoch = v
	case OpStats:
		ns, ok := c.u32()
		if !ok {
			return Response{}, 0, fmt.Errorf("%w: stats missing count", ErrCorrupt)
		}
		// Each stat needs ≥10 bytes (name length + value).
		if uint64(ns)*10 > uint64(c.rest()) {
			return Response{}, 0, fmt.Errorf("%w: stats count %d overruns", ErrCorrupt, ns)
		}
		if ns > 0 {
			r.Stats = make([]Stat, ns)
			for i := range r.Stats {
				m, ok := c.u16()
				if !ok || uint64(m) > uint64(c.rest()) {
					return Response{}, 0, fmt.Errorf("%w: stat name overruns", ErrCorrupt)
				}
				name := string(c.b[c.off : c.off+int(m)])
				c.off += int(m)
				v, ok := c.u64()
				if !ok {
					return Response{}, 0, fmt.Errorf("%w: stat missing value", ErrCorrupt)
				}
				r.Stats[i] = Stat{Name: name, Value: v}
			}
		}
	}
	if c.rest() != 0 {
		return Response{}, 0, fmt.Errorf("%w: response op %d: %d trailing bytes", ErrCorrupt, r.Op, c.rest())
	}
	return r, n, nil
}

// ReadFrame reads one complete frame (header plus payload) from r,
// reusing buf's storage when it is large enough. It validates only the
// length bound — CRC and structure are the decoders' job — so a torn or
// hostile stream fails fast without a giant allocation. A clean EOF
// before any header byte returns io.EOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf[:0], err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameSize {
		return buf[:0], fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	total := frameHeaderSize + int(n)
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[frameHeaderSize:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf[:0], err
	}
	return buf, nil
}
