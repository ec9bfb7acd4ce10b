package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"pargeo/internal/geom"
)

func pts(dim int, vals ...float64) geom.Points {
	return geom.Points{Data: vals, Dim: dim}
}

// sampleRequests covers every op, including empty batches and zero k.
func sampleRequests() []Request {
	return []Request{
		{Op: OpHello, ID: 1},
		{Op: OpKNN, ID: 2, K: 3, Queries: pts(2, 1, 2, 3, 4)},
		{Op: OpKNN, ID: 3, K: 0, Queries: geom.Points{Dim: 2}},
		{Op: OpRange, ID: 4, Box: geom.Box{Min: []float64{0, -1}, Max: []float64{10, 11}}},
		{Op: OpRangeCount, ID: 5, Box: geom.Box{Min: []float64{-5, -5}, Max: []float64{5, 5}}},
		{Op: OpUpdate, ID: 6, Ins: pts(2, 9, 9, 8, 8), Del: pts(2, 1, 2)},
		{Op: OpUpdate, ID: 7, Ins: geom.Points{Dim: 2}, Del: geom.Points{Dim: 2}},
		{Op: OpEpoch, ID: 8},
		{Op: OpCheckpoint, ID: 9},
		{Op: OpStats, ID: 10},
		{Op: OpKNN, ID: 11, K: 2, Queries: pts(2, 5, 6), AsOf: 42},
		{Op: OpRange, ID: 12, Box: geom.Box{Min: []float64{0, 0}, Max: []float64{1, 1}}, AsOf: 7},
		{Op: OpRangeCount, ID: 13, Box: geom.Box{Min: []float64{0, 0}, Max: []float64{1, 1}}, AsOf: ^uint64(0)},
		{Op: OpPin, ID: 14},
		{Op: OpPin, ID: 15, Epoch: 31},
		{Op: OpUnpin, ID: 16, Epoch: 31},
	}
}

// sampleResponses covers every op and status, including empty results.
func sampleResponses() []Response {
	return []Response{
		{Op: OpHello, ID: 1, Dim: 2, Shards: 4},
		{Op: OpKNN, ID: 2, Neighbors: [][]int32{{1, 2, 3}, nil, {7}}},
		{Op: OpKNN, ID: 3},
		{Op: OpRange, ID: 4, IDs: []int32{5, 6, 7}},
		{Op: OpRange, ID: 5},
		{Op: OpRangeCount, ID: 6, Count: 42},
		{Op: OpUpdate, ID: 7, IDs: []int32{11, 12}, Deleted: 1, Epoch: 9},
		{Op: OpUpdate, ID: 8, Epoch: 3},
		{Op: OpEpoch, ID: 9, Epoch: 77},
		{Op: OpCheckpoint, ID: 10, Epoch: 78},
		{Op: OpStats, ID: 11, Stats: []Stat{{Name: "epoch", Value: 7}, {Name: "size", Value: 100}}},
		{Op: OpStats, ID: 12},
		{Op: OpUpdate, ID: 13, Status: StatusClosed, ErrMsg: "engine: closed"},
		{Op: OpKNN, ID: 14, Status: StatusError, ErrMsg: "boom"},
		{Op: OpEpoch, ID: 15, Status: StatusError, ErrMsg: ""},
		{Op: OpKNN, ID: 16, Status: StatusOverloaded, RetryAfterMillis: 12, ErrMsg: "server: overloaded (reads)"},
		{Op: OpUpdate, ID: 17, Status: StatusOverloaded, RetryAfterMillis: 0, ErrMsg: ""},
		{Op: OpUpdate, ID: 18, Status: StatusOverloaded, RetryAfterMillis: ^uint32(0), ErrMsg: "engine: overloaded: commit queue full"},
		{Op: OpPin, ID: 19, Epoch: 55},
		{Op: OpUnpin, ID: 20, Epoch: 55},
		{Op: OpKNN, ID: 21, Status: StatusNotRetained, ErrMsg: "engine: epoch not retained"},
		{Op: OpPin, ID: 22, Status: StatusNotRetained, ErrMsg: "engine: epoch not retained: epoch 3"},
	}
}

// reframe wraps payload in a freshly stamped frame header.
func reframe(payload []byte) []byte {
	dst, start := beginFrame(nil, len(payload))
	return sealFrame(append(dst, payload...), start)
}

func TestRequestRoundTrip(t *testing.T) {
	for _, want := range sampleRequests() {
		buf := AppendRequest(nil, &want)
		got, n, err := DecodeRequest(buf, 2)
		if err != nil {
			t.Fatalf("op %d: decode: %v", want.Op, err)
		}
		if n != len(buf) {
			t.Fatalf("op %d: consumed %d of %d", want.Op, n, len(buf))
		}
		re := AppendRequest(nil, &got)
		if !bytes.Equal(re, buf) {
			t.Fatalf("op %d: re-encode differs\n got %x\nwant %x", want.Op, re, buf)
		}
		if got.Op != want.Op || got.ID != want.ID || got.K != want.K {
			t.Fatalf("op %d: header mismatch: %+v vs %+v", want.Op, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, want := range sampleResponses() {
		buf := AppendResponse(nil, &want)
		got, n, err := DecodeResponse(buf, 2)
		if err != nil {
			t.Fatalf("op %d status %d: decode: %v", want.Op, want.Status, err)
		}
		if n != len(buf) {
			t.Fatalf("op %d: consumed %d of %d", want.Op, n, len(buf))
		}
		re := AppendResponse(nil, &got)
		if !bytes.Equal(re, buf) {
			t.Fatalf("op %d: re-encode differs\n got %x\nwant %x", want.Op, re, buf)
		}
		if got.Status != want.Status || got.ErrMsg != want.ErrMsg || got.Epoch != want.Epoch {
			t.Fatalf("op %d: field mismatch: %+v vs %+v", want.Op, got, want)
		}
		if got.RetryAfterMillis != want.RetryAfterMillis {
			t.Fatalf("op %d: retry hint %d, want %d", want.Op, got.RetryAfterMillis, want.RetryAfterMillis)
		}
		if want.Op == OpStats && want.Status == StatusOK && !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("stats mismatch: %+v vs %+v", got.Stats, want.Stats)
		}
	}
}

// TestDecodeRejects: structurally broken frames must fail with ErrCorrupt
// and consumed 0, never panic or over-read.
func TestDecodeRejects(t *testing.T) {
	good := AppendRequest(nil, &Request{Op: OpKNN, ID: 1, K: 2, Queries: pts(2, 1, 2)})
	cases := map[string][]byte{
		"empty":        {},
		"short header": good[:5],
		"torn payload": good[:len(good)-3],
		"crc flip":     append(append([]byte{}, good[:5]...), append([]byte{good[5] ^ 0xff}, good[6:]...)...),
		"zero length":  {0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, buf := range cases {
		if _, n, err := DecodeRequest(buf, 2); !errors.Is(err, ErrCorrupt) && err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		} else if n != 0 {
			t.Errorf("%s: consumed %d on error", name, n)
		}
	}

	// An overloaded response torn between the status byte and the retry
	// hint must be rejected, not decoded with a garbage hint: truncate the
	// payload right after the status byte and re-stamp the frame.
	over := AppendResponse(nil, &Response{Op: OpKNN, ID: 1, Status: StatusOverloaded, RetryAfterMillis: 250, ErrMsg: "shed"})
	torn := reframe(over[frameHeaderSize : frameHeaderSize+respMinSize])
	if _, n, err := DecodeResponse(torn, 2); !errors.Is(err, ErrCorrupt) || n != 0 {
		t.Errorf("overloaded response without retry hint: err=%v n=%d, want ErrCorrupt, 0", err, n)
	}

	// A KNN request whose row count claims more coords than the payload
	// holds must be rejected before any allocation sized from it.
	huge := &Request{Op: OpKNN, ID: 1, K: 1, Queries: pts(2, 1, 2)}
	buf := AppendRequest(nil, huge)
	// Rewrite the row count (payload offset 9+8+4: header, as-of epoch, k)
	// to an absurd value and re-stamp the CRC so only the semantic check
	// can catch it.
	payload := append([]byte{}, buf[frameHeaderSize:]...)
	payload[21], payload[22], payload[23], payload[24] = 0xff, 0xff, 0xff, 0x7f
	reframed := reframe(payload)
	if _, n, err := DecodeRequest(reframed, 2); !errors.Is(err, ErrCorrupt) || n != 0 {
		t.Errorf("oversized row count: err=%v n=%d, want ErrCorrupt, 0", err, n)
	}
}

func TestReadFrameStream(t *testing.T) {
	var stream []byte
	reqs := sampleRequests()
	for i := range reqs {
		stream = AppendRequest(stream, &reqs[i])
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i := range reqs {
		var err error
		buf, err = ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, n, err := DecodeRequest(buf, 2)
		if err != nil || n != len(buf) {
			t.Fatalf("frame %d: decode n=%d err=%v", i, n, err)
		}
		if got.ID != reqs[i].ID {
			t.Fatalf("frame %d: id %d, want %d", i, got.ID, reqs[i].ID)
		}
	}
	if _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("after last frame: err=%v, want io.EOF", err)
	}

	// A stream torn mid-frame reports ErrUnexpectedEOF, not a clean EOF.
	r = bytes.NewReader(stream[:len(stream)-4])
	var err error
	for err == nil {
		buf, err = ReadFrame(r, buf)
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("torn stream: err=%v, want io.ErrUnexpectedEOF", err)
	}

	// A hostile length prefix is rejected before allocation.
	bad := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(bad), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile length: err=%v, want ErrCorrupt", err)
	}
}

// TestCodecAllocs: a k-NN request and its response, each encoded into a
// nil buffer and decoded, allocate one buffer per encode and only what
// the decoded values own: the query coordinates, the neighbor list and
// its one row.
func TestCodecAllocs(t *testing.T) {
	req := Request{Op: OpKNN, ID: 1, K: 8, Queries: pts(2, 0.25, 0.75)}
	resp := Response{Op: OpKNN, ID: 1, Neighbors: [][]int32{{1, 2, 3, 4, 5, 6, 7, 8}}}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeRequest(AppendRequest(nil, &req), 2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeResponse(AppendResponse(nil, &resp), 2); err != nil {
			t.Fatal(err)
		}
	})
	if !raceEnabled && allocs > 5 {
		t.Fatalf("k-NN codec round trip: %.0f allocs, want at most 5", allocs)
	}
}

// TestComplete: a frame is complete once its header and its declared
// payload are all present, and not one byte earlier.
func TestComplete(t *testing.T) {
	frame := AppendRequest(nil, &Request{Op: OpKNN, ID: 1, K: 2, Queries: pts(2, 1, 2)})
	for n := 0; n < len(frame); n++ {
		if Complete(frame[:n]) {
			t.Fatalf("%d of %d bytes reported complete", n, len(frame))
		}
	}
	if !Complete(frame) || !Complete(append(frame, 0, 0, 0, 0)) {
		t.Fatal("a whole frame, alone or followed by a torn one, reported incomplete")
	}
}
