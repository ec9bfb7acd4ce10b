package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pargeo/internal/engine"
	"pargeo/internal/wire"
)

// Server serves one engine on one listener.
type Server struct {
	eng *engine.Engine
	ln  net.Listener
	dim int
	adm admission

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	connWG sync.WaitGroup // connection loops
	reqWG  sync.WaitGroup // admitted requests whose responses are not yet written

	accepted atomic.Uint64 // connections accepted
	requests atomic.Uint64 // requests answered (any status)
}

// New returns a server for eng on ln with no admission limits. Call
// Serve to start accepting.
func New(eng *engine.Engine, dim int, ln net.Listener) *Server {
	return NewWithLimits(eng, dim, ln, Limits{})
}

// NewWithLimits returns a server that sheds requests beyond the
// per-class in-flight budgets in lim (see Limits). Call Serve to start
// accepting.
func NewWithLimits(eng *engine.Engine, dim int, ln net.Listener, lim Limits) *Server {
	s := &Server{eng: eng, ln: ln, dim: dim, conns: map[net.Conn]struct{}{}}
	s.adm.init(lim)
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve runs the accept loop until the listener fails or Shutdown closes
// it. A Shutdown-induced exit returns nil.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.accepted.Add(1)
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown drains the server: no new connections or requests, every
// in-flight request finishes and its response is flushed, then the
// connections close. Safe to call more than once. The engine is left
// open — closing it is the caller's next step.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.connWG.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	// In-flight requests first: each still holds its connection open and
	// must get its response out before the close below cuts the stream.
	s.reqWG.Wait()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
}

// pinTable is one connection's pins by epoch: snapshots pinned by OpPin
// and not yet released by OpUnpin. Pins are connection-scoped: the
// teardown in serveConn releases every survivor, so a crashed or careless
// client cannot leak retained versions past its own lifetime (and, the
// engine's pins being in-memory, no pin survives a server restart
// either). Only the connection's loop touches it.
type pinTable map[uint64]*connPin

// connPin is one connection's hold on one epoch: the pinned snapshot and
// how many of the connection's OpPins are open against it (the engine
// refcounts per Pin call, so release fires once per count).
type connPin struct {
	snap  *engine.Snapshot
	count int
}

// pin records one successful engine pin of s for this connection.
func (pt pinTable) pin(s *engine.Snapshot) {
	if p, ok := pt[s.Epoch()]; ok {
		p.count++
	} else {
		pt[s.Epoch()] = &connPin{snap: s, count: 1}
	}
}

// unpin releases one of this connection's pins of epoch, reporting whether
// the connection actually held one.
func (pt pinTable) unpin(epoch uint64) bool {
	p, ok := pt[epoch]
	if ok {
		p.count--
		if p.count == 0 {
			delete(pt, epoch)
		}
		p.snap.Release()
	}
	return ok
}

// releaseAll drops every pin the connection still holds (teardown).
func (pt pinTable) releaseAll() {
	for _, p := range pt {
		for i := 0; i < p.count; i++ {
			p.snap.Release()
		}
	}
}

// serveConn is one connection's loop, run to completion: it reads
// frames through a buffer and answers each on this goroutine, collecting
// the responses in out. out is written in one call before any read that
// could block (no whole frame left in the buffer, so a pipelined batch
// costs one write however many frames it holds) and before any write-class
// request starts, so the reads of a client's batch are answered while its
// update commits.
func (s *Server) serveConn(nc net.Conn) {
	var (
		pins      = pinTable{}
		br        = bufio.NewReaderSize(nc, 64<<10)
		buf, out  []byte
		unwritten int // admitted responses in out: Shutdown's drain waits on them
	)
	flush := func() error {
		_, err := nc.Write(out)
		out = out[:0]
		s.reqWG.Add(-unwritten)
		unwritten = 0
		return err
	}
	defer s.connWG.Done()
	defer func() {
		if len(out) > 0 {
			flush() //nolint:errcheck // the connection is going: nothing to tell the peer
		}
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
		// Pins are connection-scoped: whatever the client left pinned is
		// released with the connection.
		pins.releaseAll()
	}()
	for {
		if next, _ := br.Peek(br.Buffered()); len(out) > 0 && !wire.Complete(next) && flush() != nil {
			return
		}
		var err error
		buf, err = wire.ReadFrame(br, buf)
		if err != nil {
			// EOF, peer reset, Shutdown's close, or a hostile length
			// prefix: the stream is over either way. A corrupt frame
			// cannot be answered — the request id inside it is not
			// trustworthy — so the connection drops and the client's
			// pending calls fail with the broken stream.
			return
		}
		req, _, err := wire.DecodeRequest(buf, s.dim)
		if err != nil {
			return // unsynchronized stream: drop the connection
		}
		class := classOf(req.Op)
		if class == classWrite && len(out) > 0 && flush() != nil {
			return
		}
		// Admission: a shed costs one small response, touches no engine,
		// and the connection keeps serving. Backpressure rejects
		// requests, never streams.
		if !s.adm.admit(class) {
			s.requests.Add(1)
			out = wire.AppendResponse(out, &wire.Response{
				Op: req.Op, ID: req.ID,
				Status:           wire.StatusOverloaded,
				RetryAfterMillis: s.adm.retryAfterMillis(class),
				ErrMsg:           "server: overloaded (" + className[class] + ")",
			})
			continue
		}
		// The drain gate: a request that enters reqWG before Shutdown's
		// reqWG.Wait() completes fully, response written; one arriving
		// after the gate closes is answered StatusClosed without touching
		// the engine (which may be mid-Close by then).
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			s.adm.release(class)
			out = wire.AppendResponse(out, &wire.Response{Op: req.Op, ID: req.ID, Status: wire.StatusClosed, ErrMsg: engine.ErrClosed.Error()})
			return
		}
		s.reqWG.Add(1)
		s.mu.Unlock()
		unwritten++
		start := time.Now()
		resp := s.handle(pins, &req)
		s.adm.observe(class, time.Since(start))
		s.adm.release(class)
		s.requests.Add(1)
		out = wire.AppendResponse(out, resp)
	}
}

// handle executes one decoded request against the engine. pins is the
// request's connection's table, owner of any pins the request creates.
func (s *Server) handle(pins pinTable, req *wire.Request) *wire.Response {
	resp := &wire.Response{Op: req.Op, ID: req.ID}
	// A read answers from one version: the live snapshot, or the retained
	// epoch req.AsOf names.
	var snap *engine.Snapshot
	if classOf(req.Op) == classRead {
		snap = s.eng.Snapshot()
		if req.AsOf != 0 {
			var err error
			if snap, err = s.eng.AsOf(req.AsOf); err != nil {
				return s.fail(resp, err)
			}
		}
	}
	switch req.Op {
	case wire.OpHello:
		resp.Dim = int32(s.dim)
		resp.Shards = int32(s.eng.Shards())
	case wire.OpKNN:
		if req.K < 1 {
			return s.fail(resp, fmt.Errorf("k = %d: want k ≥ 1", req.K))
		}
		if req.Queries.Len() > 0 {
			resp.Neighbors = snap.KNN(req.Queries, int(req.K))
		}
	case wire.OpRange:
		resp.IDs = snap.RangeSearch(req.Box)
	case wire.OpRangeCount:
		resp.Count = uint64(snap.RangeCount(req.Box))
	case wire.OpUpdate:
		res := s.eng.Update(req.Ins, req.Del)
		if res.Err != nil {
			return s.fail(resp, res.Err)
		}
		resp.IDs = res.IDs
		resp.Deleted = uint64(res.Deleted)
		resp.Epoch = res.Epoch
	case wire.OpEpoch:
		resp.Epoch = s.eng.Epoch()
	case wire.OpCheckpoint:
		if err := s.eng.Checkpoint(); err != nil {
			return s.fail(resp, err)
		}
		resp.Epoch = s.eng.Stats().DurableEpoch
	case wire.OpStats:
		resp.Stats = s.statList()
	case wire.OpPin:
		var snap *engine.Snapshot
		if req.Epoch == 0 {
			snap = s.eng.Pin()
		} else {
			var err error
			if snap, err = s.eng.PinEpoch(req.Epoch); err != nil {
				return s.fail(resp, err)
			}
		}
		pins.pin(snap)
		resp.Epoch = snap.Epoch()
	case wire.OpUnpin:
		if !pins.unpin(req.Epoch) {
			return s.fail(resp, fmt.Errorf("epoch %d is not pinned by this connection", req.Epoch))
		}
		resp.Epoch = req.Epoch
	}
	return resp
}

func (s *Server) fail(resp *wire.Response, err error) *wire.Response {
	resp.Status = wire.StatusError
	switch {
	case errors.Is(err, engine.ErrClosed):
		resp.Status = wire.StatusClosed
	case errors.Is(err, engine.ErrEpochNotRetained):
		// Typed, like Closed: the client re-materializes
		// engine.ErrEpochNotRetained from the status so callers can
		// errors.Is across the network boundary.
		resp.Status = wire.StatusNotRetained
	}
	resp.ErrMsg = err.Error()
	return resp
}

// statList flattens the engine counters plus the server's own into the
// wire's name/value list, in a fixed order.
func (s *Server) statList() []wire.Stat {
	st := s.eng.Stats()
	return []wire.Stat{
		{Name: "epoch", Value: st.Epoch},
		{Name: "durable_epoch", Value: st.DurableEpoch},
		{Name: "size", Value: st.Size},
		{Name: "shards", Value: st.Shards},
		{Name: "updates", Value: st.Updates},
		{Name: "commits", Value: st.Commits},
		{Name: "queries", Value: st.Queries},
		{Name: "query_groups", Value: st.QueryGroups},
		{Name: "retained_epochs", Value: st.RetainedEpochs},
		{Name: "pinned_epochs", Value: st.PinnedEpochs},
		{Name: "retained_bytes", Value: st.RetainedBytes},
		{Name: "connections", Value: s.accepted.Load()},
		{Name: "requests", Value: s.requests.Load()},
		{Name: "shed_reads", Value: s.adm.gates[classRead].shed.Load()},
		{Name: "shed_writes", Value: s.adm.gates[classWrite].shed.Load()},
		{Name: "shed_control", Value: s.adm.gates[classControl].shed.Load()},
		{Name: "inflight_reads", Value: uint64(s.adm.gates[classRead].inflight.Load())},
		{Name: "inflight_writes", Value: uint64(s.adm.gates[classWrite].inflight.Load())},
		{Name: "inflight_control", Value: uint64(s.adm.gates[classControl].inflight.Load())},
	}
}
