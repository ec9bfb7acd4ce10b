package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pargeo/client"
	"pargeo/internal/wire"
)

// fakeServer speaks the wire protocol with a scriptable handler, so the
// client's failure-path behavior can be pinned without a real engine:
// sheds, stalls, and mid-batch connection drops on demand. Hello is
// answered automatically (dim 2, one shard).
type fakeServer struct {
	t      *testing.T
	ln     net.Listener
	handle func(req *wire.Request, send func(*wire.Response))

	mu    sync.Mutex
	conns []net.Conn
}

func newFakeServer(t *testing.T, handle func(req *wire.Request, send func(*wire.Response))) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{t: t, ln: ln, handle: handle}
	go fs.serve()
	t.Cleanup(fs.close)
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) close() {
	fs.ln.Close()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, c := range fs.conns {
		c.Close()
	}
}

// dropConns severs every accepted connection mid-stream.
func (fs *fakeServer) dropConns() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, c := range fs.conns {
		c.Close()
	}
	fs.conns = nil
}

func (fs *fakeServer) serve() {
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.conns = append(fs.conns, conn)
		fs.mu.Unlock()
		go func() {
			var wmu sync.Mutex
			send := func(resp *wire.Response) {
				wmu.Lock()
				defer wmu.Unlock()
				conn.Write(wire.AppendResponse(nil, resp)) //nolint:errcheck // test conn may be gone
			}
			var buf []byte
			for {
				var err error
				buf, err = wire.ReadFrame(conn, buf)
				if err != nil {
					return
				}
				req, _, err := wire.DecodeRequest(buf, 2)
				if err != nil {
					fs.t.Errorf("fake server: corrupt request: %v", err)
					return
				}
				if req.Op == wire.OpHello {
					send(&wire.Response{Op: wire.OpHello, ID: req.ID, Dim: 2, Shards: 1})
					continue
				}
				// Concurrent dispatch: the real server answers a
				// connection's frames in order, but the wire lets a
				// server answer out of order, so the client must match
				// every response to its request by id.
				r := req
				go fs.handle(&r, send)
			}
		}()
	}
}

// echoKNN answers a (possibly merged) KNN request with one id per query.
func echoKNN(req *wire.Request, send func(*wire.Response)) {
	nb := make([][]int32, req.Queries.Len())
	for i := range nb {
		nb[i] = []int32{int32(i)}
	}
	send(&wire.Response{Op: req.Op, ID: req.ID, Neighbors: nb})
}

// TestOverloadedTyped: a shed frame surfaces as *OverloadedError, is
// matched by errors.Is(…, ErrOverloaded), and carries the server's hint.
func TestOverloadedTyped(t *testing.T) {
	fs := newFakeServer(t, func(req *wire.Request, send func(*wire.Response)) {
		send(&wire.Response{Op: req.Op, ID: req.ID, Status: wire.StatusOverloaded,
			RetryAfterMillis: 25, ErrMsg: "server: overloaded (reads)"})
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.KNN([]float64{1, 2}, 3)
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("shed KNN: %v, want ErrOverloaded", err)
	}
	var oe *client.OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter != 25*time.Millisecond {
		t.Fatalf("shed KNN: %v, want *OverloadedError with 25ms hint", err)
	}
	// A shed update is typed the same way.
	if res := c.Insert(client.Points{Data: []float64{1, 2}, Dim: 2}); !errors.Is(res.Err, client.ErrOverloaded) {
		t.Fatalf("shed insert: %v, want ErrOverloaded", res.Err)
	}
}

// TestRequestTimeout: a server that swallows requests must not hang the
// client — Options.RequestTimeout bounds the wait and surfaces
// context.DeadlineExceeded.
func TestRequestTimeout(t *testing.T) {
	fs := newFakeServer(t, func(req *wire.Request, send func(*wire.Response)) {
		// Swallow everything: the response never comes.
	})
	c, err := client.DialWith(fs.addr(), client.Options{RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.KNN([]float64{1, 2}, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled KNN: %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("stalled KNN took %v to time out", el)
	}
}

// TestContextDeadlineWhileParked: the deputy regression. With the
// single-batch window, a call parked behind a stalled batch abandons at
// its deadline — but if the baton is later handed to the abandoned call,
// someone must still drain the queue, or every other parked caller
// hangs forever.
func TestContextDeadlineWhileParked(t *testing.T) {
	type held struct {
		req  *wire.Request
		send func(*wire.Response)
	}
	first := make(chan held, 1)
	var n atomic.Int64
	fs := newFakeServer(t, func(req *wire.Request, send func(*wire.Response)) {
		if n.Add(1) == 1 {
			first <- held{req, send} // hold the first batch's response
			return
		}
		echoKNN(req, send)
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// X: in flight, response held by the server.
	xDone := make(chan error, 1)
	go func() {
		_, err := c.KNN([]float64{0, 0}, 1)
		xDone <- err
	}()
	h := <-first // X's request has arrived; its batch is now stalled in flight

	// A parks behind X with a deadline it will miss; B parks with none.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	aDone := make(chan error, 1)
	go func() {
		_, err := c.KNNContext(ctx, []float64{1, 1}, 1)
		aDone <- err
	}()
	bDone := make(chan error, 1)
	go func() {
		_, err := c.KNN([]float64{2, 2}, 1)
		bDone <- err
	}()

	// A abandons while parked.
	select {
	case err := <-aDone:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("parked call at deadline: %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked call ignored its deadline")
	}
	select {
	case err := <-bDone:
		t.Fatalf("B resolved while the first batch still held: %v", err)
	default:
	}

	// Release X. The baton may go to the ABANDONED call A — its deputy
	// must lead the drain so B's call still reaches the server.
	echoKNN(h.req, h.send)
	if err := <-xDone; err != nil {
		t.Fatalf("first call: %v", err)
	}
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("call parked behind an abandoned baton holder: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call parked behind an abandoned baton holder never resolved")
	}
}

// TestBatonReleaseOnBrokenBatch: the stream breaks while a batch is in
// flight and others are parked behind it. Every caller — in flight and
// parked — must resolve promptly with the typed connection error; none
// may wait on a baton that no response will ever release.
func TestBatonReleaseOnBrokenBatch(t *testing.T) {
	got := make(chan struct{}, 16)
	fs := newFakeServer(t, func(req *wire.Request, send func(*wire.Response)) {
		got <- struct{}{} // swallow: these responses never come
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers = 6
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		i := i
		go func() {
			_, err := c.KNN([]float64{float64(i), 0}, 1)
			errs <- err
		}()
	}
	<-got // the leader's batch reached the server; the rest are parked
	fs.dropConns()
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, client.ErrConnClosed) {
				t.Fatalf("caller resolved with %v, want ErrConnClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("after the break, %d of %d callers still parked on the dead baton", callers-i, callers)
		}
	}
}

// TestSingleBatchInFlight: however many callers share a connection, at
// most one merged batch is in flight on it, and calls that arrive during
// its round trip merge into the next one. The server holds every batch
// for 2 ms, so eight closed-loop callers always find one in flight.
func TestSingleBatchInFlight(t *testing.T) {
	var inflight, peak, requests atomic.Int64
	fs := newFakeServer(t, func(req *wire.Request, send func(*wire.Response)) {
		requests.Add(1)
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond) // hold the batch so callers pile up
		// Leave before answering: the answer releases the next batch.
		inflight.Add(-1)
		echoKNN(req, send)
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers, perCaller = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if _, err := c.KNN([]float64{1, 2}, 1); err != nil {
					t.Errorf("KNN: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p != 1 {
		t.Fatalf("peak concurrent batches %d, want 1", p)
	}
	if r := requests.Load(); r >= callers*perCaller {
		t.Fatalf("server saw %d requests for %d calls: nothing merged", r, callers*perCaller)
	}
}

// TestCohortRidesOneFlush: every caller one response releases must ride
// the next flush. Eight k-NN callers and one insert caller run a closed
// loop against a server that answers each frame about 200 µs after
// reading it, so a batch's k-NN answer reaches the client before its
// insert answer. Handing the baton on as soon as the last answer lands
// splits each cohort into a k-NN flush and an insert flush, two round
// trips per cycle; the server sees that as reads carrying 8 calls and
// reads carrying 1.
func TestCohortRidesOneFlush(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	perRead := make(chan []int, 1) // calls carried by the frames of each server read
	go func() {
		var counts []int
		defer func() { perRead <- counts }()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var pending []byte
		chunk := make([]byte, 64<<10)
		for {
			n, err := conn.Read(chunk)
			if err != nil {
				return
			}
			pending = append(pending, chunk[:n]...)
			calls := 0
			for wire.Complete(pending) {
				req, m, err := wire.DecodeRequest(pending, 2)
				if err != nil {
					t.Errorf("corrupt request: %v", err)
					return
				}
				pending = pending[m:]
				resp := &wire.Response{Op: req.Op, ID: req.ID, Dim: 2, Shards: 1}
				switch req.Op {
				case wire.OpKNN:
					calls += req.Queries.Len()
					resp.Neighbors = make([][]int32, req.Queries.Len())
				case wire.OpUpdate:
					calls++ // one single-row insert per flush
					resp.IDs = make([]int32, req.Ins.Len())
				}
				if req.Op != wire.OpHello {
					time.Sleep(200 * time.Microsecond)
				}
				if _, err := conn.Write(wire.AppendResponse(nil, resp)); err != nil {
					return
				}
			}
			if calls > 0 {
				counts = append(counts, calls)
			}
		}
	}()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const knnCallers, cycles = 8, 200
	var wg sync.WaitGroup
	for g := 0; g <= knnCallers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				if g == knnCallers {
					if res := c.Insert(client.Points{Data: []float64{1, 2}, Dim: 2}); res.Err != nil {
						t.Errorf("insert: %v", res.Err)
						return
					}
				} else if _, err := c.KNN([]float64{1, 2}, 1); err != nil {
					t.Errorf("KNN: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	counts := <-perRead
	whole := 0
	for _, n := range counts {
		if n == knnCallers+1 {
			whole++
		}
	}
	if len(counts) == 0 || whole*10 < 9*len(counts) {
		t.Fatalf("%d of %d server reads carried the whole cohort of %d calls, want at least 90 %%; calls per read from the first: %v",
			whole, len(counts), knnCallers+1, counts[:min(len(counts), 24)])
	}
}

// clientGoroutines counts the goroutines with a Client method on their
// stack. With parked set it counts only those blocked in submitCtx's
// select: calls waiting for the baton or for their response, not a
// leader reading its own.
func clientGoroutines(parked bool) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if parked && !(strings.Contains(header, "[select") && strings.Contains(g, "pargeo/client.(*Client).submitCtx")) {
			continue
		}
		if strings.Contains(g, "pargeo/client.(*Client).") {
			count++
		}
	}
	return count
}

// waitFor polls cond for up to five seconds and fails the test with what
// if it never holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("after 5s: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUnknownResponseIDFailsStream: a response whose id matches no
// request in flight leaves that request unanswered for good, so the
// stream is unusable. The call fails at once with ErrConnClosed naming
// the stray id, and so does every later call, instead of each one
// waiting out its deadline.
func TestUnknownResponseIDFailsStream(t *testing.T) {
	fs := newFakeServer(t, func(req *wire.Request, send func(*wire.Response)) {
		send(&wire.Response{Op: req.Op, ID: req.ID + 1000, Neighbors: make([][]int32, req.Queries.Len())})
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := c.KNNContext(ctx, []float64{1, 2}, 1)
		cancel()
		if !errors.Is(err, client.ErrConnClosed) {
			t.Fatalf("call %d: %v, want ErrConnClosed", i, err)
		}
		if i == 0 && !strings.Contains(err.Error(), "1001") {
			t.Fatalf("first call: %v, want the stray id 1001 named", err)
		}
	}
}

// TestLeaderDeadlineWhileReading: a lone leader whose context can expire
// does not read its own response. At its deadline it returns, although
// the response is still held by the server, and a call parked behind
// its batch resolves once that response arrives.
func TestLeaderDeadlineWhileReading(t *testing.T) {
	type held struct {
		req  *wire.Request
		send func(*wire.Response)
	}
	first := make(chan held, 1)
	var n atomic.Int64
	fs := newFakeServer(t, func(req *wire.Request, send func(*wire.Response)) {
		if n.Add(1) == 1 {
			first <- held{req, send}
			return
		}
		echoKNN(req, send)
	})
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	aDone := make(chan error, 1)
	go func() {
		_, err := c.KNNContext(ctx, []float64{0, 0}, 1)
		aDone <- err
	}()
	h := <-first
	select {
	case err := <-aDone:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("leader at its deadline: %v, want DeadlineExceeded", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("leader with a 50ms deadline returned after %v", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leader ignored its deadline while its response was held")
	}

	bDone := make(chan error, 1)
	go func() {
		_, err := c.KNN([]float64{1, 1}, 1)
		bDone <- err
	}()
	waitFor(t, "the second call never parked", func() bool { return clientGoroutines(true) == 1 })
	select {
	case err := <-bDone:
		t.Fatalf("call resolved while the first batch still held: %v", err)
	default:
	}
	echoKNN(h.req, h.send)
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("call parked behind an abandoned leader: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call parked behind an abandoned leader never resolved")
	}
}

// TestOutOfOrderBatch: the wire lets a server answer a connection's
// frames in any order. The server here answers the frames of each read
// last to first, and one batch carries a range count, an epoch read,
// two k-NN frames (one merging two callers) and a merged insert. Every
// caller must get its own answer.
func TestOutOfOrderBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	arrived, release := make(chan struct{}), make(chan struct{})
	most := make(chan int, 1) // the most frames one server read carried
	go func() {
		reads, frames := 0, 0
		defer func() { most <- frames }()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var pending []byte
		chunk := make([]byte, 64<<10)
		for {
			n, err := conn.Read(chunk)
			if err != nil {
				return
			}
			pending = append(pending, chunk[:n]...)
			var out [][]byte
			for wire.Complete(pending) {
				req, m, err := wire.DecodeRequest(pending, 2)
				if err != nil {
					t.Errorf("corrupt request: %v", err)
					return
				}
				pending = pending[m:]
				// Every answer is derived from its request, so a caller
				// handed another frame's answer sees the wrong value.
				resp := &wire.Response{Op: req.Op, ID: req.ID, Dim: 2, Shards: 1}
				switch req.Op {
				case wire.OpKNN:
					resp.Neighbors = make([][]int32, req.Queries.Len())
					for i := range resp.Neighbors {
						resp.Neighbors[i] = []int32{1000*req.K + int32(req.Queries.At(i)[0])}
					}
				case wire.OpUpdate:
					resp.IDs = make([]int32, req.Ins.Len())
					for i := range resp.IDs {
						resp.IDs[i] = int32(req.Ins.At(i)[0])
					}
					resp.Epoch = 9
				case wire.OpRangeCount:
					resp.Count = uint64(req.Box.Min[0])
				case wire.OpEpoch:
					resp.Epoch = 77
				}
				out = append(out, wire.AppendResponse(nil, resp))
			}
			if reads++; reads == 2 {
				// Hold the first batch so the other calls park behind it.
				close(arrived)
				<-release
			}
			frames = max(frames, len(out))
			for i := len(out) - 1; i >= 0; i-- {
				if _, err := conn.Write(out[i]); err != nil {
					return
				}
			}
		}
	}()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	check := func(what string, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		}()
	}
	knn := func(x float64, k int, want int32) func() error {
		return func() error {
			ids, err := c.KNN([]float64{x, 0}, k)
			if err == nil && (len(ids) != 1 || ids[0] != want) {
				err = fmt.Errorf("got %v, want [%d]", ids, want)
			}
			return err
		}
	}
	insert := func(xs ...float64) func() error {
		return func() error {
			pts := client.Points{Dim: 2}
			for _, x := range xs {
				pts.Data = append(pts.Data, x, 0)
			}
			res := c.Insert(pts)
			if res.Err == nil && (len(res.IDs) != len(xs) || res.Epoch != 9) {
				return fmt.Errorf("got ids %v at epoch %d, want %v at 9", res.IDs, res.Epoch, xs)
			}
			for i, id := range res.IDs {
				if float64(id) != xs[i] {
					return fmt.Errorf("got ids %v, want %v", res.IDs, xs)
				}
			}
			return res.Err
		}
	}
	// The held call has a deadline, so it waits parked in submitCtx's
	// select like the others rather than reading its own response.
	check("held k-NN", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		ids, err := c.KNNContext(ctx, []float64{0, 0}, 1)
		if err == nil && (len(ids) != 1 || ids[0] != 1000) {
			err = fmt.Errorf("got %v, want [1000]", ids)
		}
		return err
	})
	<-arrived
	check("k-NN k=1 a", knn(1, 1, 1001))
	check("k-NN k=1 b", knn(2, 1, 1002))
	check("k-NN k=2", knn(3, 2, 2003))
	check("insert a", insert(10, 11))
	check("insert b", insert(12))
	check("range count", func() error {
		n, err := c.RangeCount(client.Box{Min: []float64{5, 0}, Max: []float64{6, 1}})
		if err == nil && n != 5 {
			err = fmt.Errorf("got %d, want 5", n)
		}
		return err
	})
	check("epoch", func() error {
		e, err := c.Epoch()
		if err == nil && e != 77 {
			err = fmt.Errorf("got %d, want 77", e)
		}
		return err
	})
	waitFor(t, "the callers never parked", func() bool { return clientGoroutines(true) == 8 })
	close(release)
	wg.Wait()
	c.Close()
	if n := <-most; n != 5 {
		t.Fatalf("the largest batch carried %d frames, want 5", n)
	}
}

// TestIdleClientHoldsNoGoroutine: the client keeps no goroutine of its
// own. Between calls, after lone and merged batches alike, no goroutine
// runs client code; Close with a batch in flight releases every caller,
// and the goroutine count returns to where it was.
func TestIdleClientHoldsNoGoroutine(t *testing.T) {
	fs := newFakeServer(t, echoKNN)
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN([]float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.KNN([]float64{1, 2}, 1); err != nil {
					t.Errorf("KNN: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "an idle client still runs a goroutine", func() bool { return clientGoroutines(false) == 0 })
	c.Close()

	swallow := newFakeServer(t, func(*wire.Request, func(*wire.Response)) {})
	c, err = client.Dial(swallow.addr())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_, err := c.KNNContext(ctx, []float64{1, 2}, 1)
			errs <- err
		}()
	}
	waitFor(t, "the callers never parked", func() bool { return clientGoroutines(true) == callers })
	c.Close()
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, client.ErrConnClosed) {
			t.Fatalf("call in flight at Close: %v, want ErrConnClosed", err)
		}
	}
	waitFor(t, "goroutines outlived Close", func() bool {
		return clientGoroutines(false) == 0 && runtime.NumGoroutine() <= base
	})
}

// TestIdleServerCloseFailsNextCall: nobody reads an idle connection, so a
// server that drops it goes unnoticed until the next call, which must
// then fail promptly with ErrConnClosed rather than wait on a dead
// stream.
func TestIdleServerCloseFailsNextCall(t *testing.T) {
	fs := newFakeServer(t, echoKNN)
	c, err := client.Dial(fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.KNN([]float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	fs.dropConns()
	start := time.Now()
	if _, err := c.KNN([]float64{1, 2}, 1); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("call after the server dropped the connection: %v, want ErrConnClosed", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("call on a dropped connection took %v to fail", el)
	}
}
