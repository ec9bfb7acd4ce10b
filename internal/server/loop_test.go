package server_test

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"pargeo/internal/engine"
	"pargeo/internal/geom"
	"pargeo/internal/server"
	"pargeo/internal/wal"
	"pargeo/internal/wire"
)

// stallFS is a MemFS whose file Syncs block while it is held, so a test
// can park an update (in its WAL fsync) or a checkpoint inside the engine
// and look at what the connection loop does meanwhile.
type stallFS struct {
	*wal.MemFS
	mu      sync.Mutex
	gate    chan struct{} // nil: Syncs pass
	entered chan struct{} // a token once a Sync has blocked
}

func newStallFS() *stallFS {
	return &stallFS{MemFS: wal.NewMemFS(), entered: make(chan struct{}, 1)}
}

// hold makes every later Sync block until release.
func (fs *stallFS) hold() {
	fs.mu.Lock()
	fs.gate = make(chan struct{})
	fs.mu.Unlock()
}

// release lets held Syncs through. Deferred too, so that a failing test
// cannot leave the engine parked under its own Shutdown and Close.
func (fs *stallFS) release() {
	fs.mu.Lock()
	if fs.gate != nil {
		close(fs.gate)
		fs.gate = nil
	}
	fs.mu.Unlock()
}

func (fs *stallFS) Create(name string) (wal.File, error) {
	f, err := fs.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	return stallFile{f, fs}, nil
}

type stallFile struct {
	wal.File
	fs *stallFS
}

func (f stallFile) Sync() error {
	f.fs.mu.Lock()
	gate := f.fs.gate
	f.fs.mu.Unlock()
	if gate != nil {
		select {
		case f.fs.entered <- struct{}{}:
		default: // a token is already waiting
		}
		<-gate
	}
	return f.File.Sync()
}

// startStalled opens a durable two-shard engine on a stallFS, seeds it,
// and serves it on loopback.
func startStalled(t *testing.T) (*stallFS, *engine.Engine, *server.Server, string) {
	t.Helper()
	fs := newStallFS()
	eng, srv, addr := startServer(t, 2, engine.Options{
		Shards:     2,
		Durability: &engine.Durability{Dir: "db", FS: fs, SyncEvery: 1},
	})
	if res := eng.Insert(geom.Points{Data: []float64{0, 0, 100, 100, 50, 50, 25, 75}, Dim: 2}); res.Err != nil {
		t.Fatal(res.Err)
	}
	return fs, eng, srv, addr
}

// recvWithin is recv under a read deadline, so a response the loop never
// writes fails the test instead of hanging it.
func (r *rawConn) recvWithin(d time.Duration) wire.Response {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(d)) //nolint:errcheck // a failed arm surfaces in the read
	defer r.c.SetReadDeadline(time.Time{}) //nolint:errcheck // same
	return r.recv()
}

func knnReq(id uint64) *wire.Request {
	return &wire.Request{Op: wire.OpKNN, ID: id, K: 2, Queries: geom.Points{Data: []float64{1, 1}, Dim: 2}}
}

// TestReadsAnsweredBeforeWrite: a k-NN and an update arrive in one
// write, as a client's merged batch does. The update is held in its WAL
// fsync; the k-NN's answer must already be out, because the loop writes
// what it has answered before it starts a write-class request.
func TestReadsAnsweredBeforeWrite(t *testing.T) {
	fs, eng, srv, addr := startStalled(t)
	defer func() { srv.Shutdown(); eng.Close() }()
	rc := dialRaw(t, addr)
	fs.hold()
	defer fs.release()
	batch := wire.AppendRequest(nil, knnReq(1))
	batch = wire.AppendRequest(batch, &wire.Request{Op: wire.OpUpdate, ID: 2,
		Ins: geom.Points{Data: []float64{5, 5}, Dim: 2}, Del: geom.Points{Dim: 2}})
	if _, err := rc.c.Write(batch); err != nil {
		t.Fatal(err)
	}
	<-fs.entered // the update is parked in its fsync
	if r := rc.recvWithin(10 * time.Second); r.ID != 1 || r.Status != wire.StatusOK || len(r.Neighbors) != 1 {
		t.Fatalf("while the update is held: id %d status %d, want the k-NN (id 1) answered", r.ID, r.Status)
	}
	fs.release()
	if r := rc.recvWithin(10 * time.Second); r.ID != 2 || r.Status != wire.StatusOK || len(r.IDs) != 1 {
		t.Fatalf("after release: id %d status %d (%s), want the update (id 2) acked", r.ID, r.Status, r.ErrMsg)
	}
}

// TestTornNextFrame: a whole k-NN frame followed by the first 4 bytes of
// the next one. The k-NN's answer must go out although the buffer is not
// empty, because the next read can block until the client sends the rest.
func TestTornNextFrame(t *testing.T) {
	eng, srv, addr := startServer(t, 2, engine.Options{Shards: 2})
	defer func() { srv.Shutdown(); eng.Close() }()
	if res := eng.Insert(geom.Points{Data: []float64{0, 0, 100, 100}, Dim: 2}); res.Err != nil {
		t.Fatal(res.Err)
	}
	rc := dialRaw(t, addr)
	defer rc.c.Close() // before Shutdown: an unanswered request would hold its drain
	first := wire.AppendRequest(nil, knnReq(1))
	second := wire.AppendRequest(nil, knnReq(2))
	if _, err := rc.c.Write(append(first, second[:4]...)); err != nil {
		t.Fatal(err)
	}
	if r := rc.recvWithin(10 * time.Second); r.ID != 1 || r.Status != wire.StatusOK {
		t.Fatalf("whole frame before a torn one: id %d status %d, want id 1 answered", r.ID, r.Status)
	}
	// The stream is still in sync: the rest of the torn frame completes it.
	if _, err := rc.c.Write(second[4:]); err != nil {
		t.Fatal(err)
	}
	if r := rc.recvWithin(10 * time.Second); r.ID != 2 || r.Status != wire.StatusOK {
		t.Fatalf("completed torn frame: id %d status %d, want id 2 answered", r.ID, r.Status)
	}
}

// TestShutdownFlushesHandled: a Pin is answered but its response is still
// in the loop's buffer, because a Checkpoint from the same write is
// running (held in its fsync). Shutdown lands meanwhile, so the write's
// third request, an Epoch, meets the closed gate. Shutdown must wait for
// the Pin and Checkpoint responses to be written, the Epoch must be
// answered StatusClosed behind them, and the connection's pin must be
// released by the time Shutdown returns.
func TestShutdownFlushesHandled(t *testing.T) {
	fs, eng, srv, addr := startStalled(t)
	defer eng.Close()
	rc := dialRaw(t, addr)
	fs.hold()
	defer fs.release()
	batch := wire.AppendRequest(nil, &wire.Request{Op: wire.OpPin, ID: 1})
	batch = wire.AppendRequest(batch, &wire.Request{Op: wire.OpCheckpoint, ID: 2})
	batch = wire.AppendRequest(batch, &wire.Request{Op: wire.OpEpoch, ID: 3})
	if _, err := rc.c.Write(batch); err != nil {
		t.Fatal(err)
	}
	<-fs.entered // the checkpoint is parked in its fsync
	if got := eng.Stats().PinnedEpochs; got != 1 {
		t.Fatalf("pinned epochs %d, want the Pin handled (1)", got)
	}
	// Handled, not written: nothing has reached the client yet.
	rc.c.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck // a failed arm surfaces in the read
	if _, err := wire.ReadFrame(rc.c, nil); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read while the checkpoint runs: %v, want a timeout (no response written yet)", err)
	}
	rc.c.SetReadDeadline(time.Time{}) //nolint:errcheck // same

	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	// Shutdown closes the listener before it waits on in-flight requests.
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break
		}
		c.Close()
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("Shutdown returned while a handled response was unwritten")
	case <-time.After(20 * time.Millisecond):
	}
	fs.release()
	if r := rc.recvWithin(10 * time.Second); r.ID != 1 || r.Status != wire.StatusOK || r.Epoch == 0 {
		t.Fatalf("pin across Shutdown: id %d status %d epoch %d, want id 1 OK", r.ID, r.Status, r.Epoch)
	}
	if r := rc.recvWithin(10 * time.Second); r.ID != 2 || r.Status != wire.StatusOK {
		t.Fatalf("checkpoint across Shutdown: id %d status %d (%s), want id 2 OK", r.ID, r.Status, r.ErrMsg)
	}
	if r := rc.recvWithin(10 * time.Second); r.ID != 3 || r.Status != wire.StatusClosed {
		t.Fatalf("request behind the drain gate: id %d status %d, want id 3 StatusClosed", r.ID, r.Status)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown still waiting after every response was written")
	}
	if got := eng.Stats().PinnedEpochs; got != 0 {
		t.Fatalf("pinned epochs %d after Shutdown, want the connection's pin released", got)
	}
}
