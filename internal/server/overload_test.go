package server_test

import (
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pargeo/internal/engine"
	"pargeo/internal/geom"
	"pargeo/internal/server"
	"pargeo/internal/wire"
)

// rawConn speaks the wire protocol directly, below the client package,
// so tests can observe shed frames exactly as they leave the server.
type rawConn struct {
	t   *testing.T
	c   net.Conn
	buf []byte
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c}
}

func (r *rawConn) send(req *wire.Request) {
	r.t.Helper()
	if _, err := r.c.Write(wire.AppendRequest(nil, req)); err != nil {
		r.t.Fatalf("send op %d: %v", req.Op, err)
	}
}

func (r *rawConn) recv() wire.Response {
	r.t.Helper()
	var err error
	r.buf, err = wire.ReadFrame(r.c, r.buf)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	resp, _, err := wire.DecodeResponse(r.buf, 2)
	if err != nil {
		r.t.Fatalf("decode: %v", err)
	}
	return resp
}

func (r *rawConn) stats() map[string]uint64 {
	r.t.Helper()
	r.send(&wire.Request{Op: wire.OpStats, ID: 99})
	resp := r.recv()
	out := map[string]uint64{}
	for _, st := range resp.Stats {
		out[st.Name] = st.Value
	}
	return out
}

func startLimited(t *testing.T, dim int, opts engine.Options, lim server.Limits) (*engine.Engine, *server.Server, string) {
	t.Helper()
	eng, err := engine.Open(dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	srv := server.NewWithLimits(eng, dim, ln, lim)
	go srv.Serve() //nolint:errcheck // exits nil on Shutdown
	return eng, srv, ln.Addr().String()
}

// TestShedTyped pins one read slot with a long multi-query KNN, then
// checks the whole overload contract from outside: the next read is
// answered StatusOverloaded with a hint — immediately, on a connection
// that keeps serving — while writes and control ride their own budgets
// untouched, the pinned read still completes correctly, and the shed
// shows up in the stats counters.
func TestShedTyped(t *testing.T) {
	eng, srv, addr := startLimited(t, 2, engine.Options{Shards: 2}, server.Limits{Reads: 1})
	defer func() { srv.Shutdown(); eng.Close() }()
	rng := rand.New(rand.NewSource(3))
	seed := geom.NewPoints(4096, 2)
	for i := 0; i < seed.Len(); i++ {
		seed.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	if res := eng.Insert(seed); res.Err != nil {
		t.Fatal(res.Err)
	}

	// A batch big enough to hold the read slot for a while (tens of ms at
	// least), but bounded; the poll below confirms it is actually pinned.
	big := geom.NewPoints(60000, 2)
	for i := 0; i < big.Len(); i++ {
		big.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	pinner := dialRaw(t, addr)
	prober := dialRaw(t, addr)
	ctrl := dialRaw(t, addr)

	var probe wire.Response
	for attempt := 0; ; attempt++ {
		if attempt == 10 {
			t.Fatal("10 pinned reads finished before the probe landed")
		}
		pinner.send(&wire.Request{Op: wire.OpKNN, ID: uint64(attempt), K: 8, Queries: big})
		for ctrl.stats()["inflight_reads"] == 0 {
		}
		prober.send(&wire.Request{Op: wire.OpKNN, ID: 1000, K: 1, Queries: geom.Points{Data: []float64{1, 1}, Dim: 2}})
		probe = prober.recv()
		// While the read gate is (still) full, the other classes admit.
		ctrl.send(&wire.Request{Op: wire.OpUpdate, ID: 2000, Ins: geom.Points{Data: []float64{5, 5}, Dim: 2}, Del: geom.Points{Dim: 2}})
		if wr := ctrl.recv(); wr.Status != wire.StatusOK {
			t.Fatalf("write during read overload: status %d (%s)", wr.Status, wr.ErrMsg)
		}
		pinned := pinner.recv()
		if pinned.Status != wire.StatusOK || len(pinned.Neighbors) != big.Len() {
			t.Fatalf("pinned read: status %d, %d rows, want OK with %d", pinned.Status, len(pinned.Neighbors), big.Len())
		}
		if probe.Status == wire.StatusOverloaded {
			break
		}
		// The pinned read finished before the probe arrived: it answered
		// normally. Legitimate, just unlucky — re-pin and retry.
		if probe.Status != wire.StatusOK {
			t.Fatalf("probe: status %d (%s), want OK or Overloaded", probe.Status, probe.ErrMsg)
		}
	}
	if probe.ID != 1000 || probe.Op != wire.OpKNN {
		t.Fatalf("shed echoed op %d id %d, want op %d id 1000", probe.Op, probe.ID, wire.OpKNN)
	}
	if probe.RetryAfterMillis < 1 || probe.RetryAfterMillis > 1000 {
		t.Fatalf("retry hint %dms outside [1, 1000]", probe.RetryAfterMillis)
	}
	if len(probe.Neighbors) != 0 {
		t.Fatalf("shed response carries %d result rows", len(probe.Neighbors))
	}

	// The shed connection was not dropped: the same conn serves the same
	// query once the slot frees.
	prober.send(&wire.Request{Op: wire.OpKNN, ID: 1001, K: 1, Queries: geom.Points{Data: []float64{1, 1}, Dim: 2}})
	if retried := prober.recv(); retried.Status != wire.StatusOK || len(retried.Neighbors) != 1 {
		t.Fatalf("retry after shed: status %d, %d rows", retried.Status, len(retried.Neighbors))
	}
	st := ctrl.stats()
	if st["shed_reads"] == 0 {
		t.Fatal("shed_reads counter still zero after an observed shed")
	}
	if st["shed_writes"] != 0 || st["shed_control"] != 0 {
		t.Fatalf("collateral sheds: writes=%d control=%d", st["shed_writes"], st["shed_control"])
	}
}

// TestShutdownUnderShedding pulls the plug while the server is actively
// shedding: every in-flight and queued request must still resolve with a
// typed status (OK, Overloaded, or Closed) — no hangs, no invented
// statuses — Shutdown must complete, and the connection loops must all
// exit.
func TestShutdownUnderShedding(t *testing.T) {
	baseline := runtime.NumGoroutine()
	eng, srv, addr := startLimited(t, 2, engine.Options{Shards: 2},
		server.Limits{Reads: 2, Writes: 2, Control: 2})
	rng := rand.New(rand.NewSource(17))
	seed := geom.NewPoints(4096, 2)
	for i := 0; i < seed.Len(); i++ {
		seed.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	if res := eng.Insert(seed); res.Err != nil {
		t.Fatal(res.Err)
	}

	const stormers = 12
	var (
		wg         sync.WaitGroup
		oks, sheds atomic.Uint64
		closeds    atomic.Uint64
	)
	for g := 0; g < stormers; g++ {
		g := g
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(g)))
			var buf []byte
			// Read stormers carry multi-query batches so handlers are slow
			// enough that >2 reliably overlap against Reads=2 — the test
			// needs the server demonstrably shedding when Shutdown lands.
			// The batches must outlast a scheduler slice (~10ms) or a
			// single-core host serializes the handlers and never sheds.
			batch := geom.NewPoints(32768, 2)
			for i := 0; i < batch.Len(); i++ {
				batch.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
			}
			for id := uint64(0); ; id++ {
				req := &wire.Request{Op: wire.OpKNN, ID: id, K: 4, Queries: batch}
				if g%3 == 0 {
					req = &wire.Request{Op: wire.OpUpdate, ID: id,
						Ins: geom.Points{Data: []float64{rng.Float64() * 100, rng.Float64() * 100}, Dim: 2},
						Del: geom.Points{Dim: 2}}
				}
				if _, err := c.Write(wire.AppendRequest(nil, req)); err != nil {
					return // shutdown cut the stream mid-write: fine
				}
				buf, err = wire.ReadFrame(c, buf)
				if err != nil {
					return // shutdown cut the stream before the response
				}
				resp, _, err := wire.DecodeResponse(buf, 2)
				if err != nil {
					t.Errorf("stormer %d: corrupt response: %v", g, err)
					return
				}
				switch resp.Status {
				case wire.StatusOK:
					oks.Add(1)
				case wire.StatusOverloaded:
					sheds.Add(1)
				case wire.StatusClosed:
					closeds.Add(1)
					return
				default:
					t.Errorf("stormer %d: status %d (%s)", g, resp.Status, resp.ErrMsg)
					return
				}
			}
		}()
	}

	// Wait until shedding is demonstrably happening, then shut down.
	for start := time.Now(); sheds.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 30*time.Second {
			t.Fatal("storm never produced a shed")
		}
	}
	srv.Shutdown()
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("storm: %d ok, %d shed, %d closed", oks.Load(), sheds.Load(), closeds.Load())
	if oks.Load() == 0 {
		t.Error("storm produced no successful requests")
	}

	// Connection loops must all be gone: poll back down to
	// (near) the pre-test count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
