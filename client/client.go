package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"pargeo/internal/engine"
	"pargeo/internal/geom"
	"pargeo/internal/wire"
)

// Points and Box are the coordinate types shared with the pargeo facade
// (pargeo.Points / pargeo.Box are the same aliases).
type (
	Points = geom.Points
	Box    = geom.Box
)

// UpdateResult is the engine's update acknowledgement, identical to the
// embedded engine's — code written against pargeo.Engine.Update reads a
// remote result the same way.
type UpdateResult = engine.UpdateResult

// ErrEngineClosed reports that the server's engine rejected the call
// because it is shut down or shutting down. It is the same value as the
// embedded engine's ErrClosed, so one errors.Is target covers both
// embedded and remote use.
var ErrEngineClosed = engine.ErrClosed

// ErrConnClosed reports that the client's connection is gone: Close was
// called, the stream broke, or the server dropped it. The sticky stream
// error (when there is one) is wrapped alongside.
var ErrConnClosed = errors.New("client: connection closed")

// RemoteError is a server-side failure that is not the closed state:
// the message is the remote error's text.
type RemoteError struct{ Msg string }

// Error returns the remote failure prefixed with its origin.
func (e *RemoteError) Error() string { return "pargeo server: " + e.Msg }

// ErrOverloaded is the errors.Is target for load-shed calls: the server
// (or its engine) refused the request at a full admission budget rather
// than queueing it. The concrete error is an *OverloadedError carrying
// the server's retry hint.
var ErrOverloaded = errors.New("client: server overloaded")

// OverloadedError reports one shed request. RetryAfter is the server's
// hint for when a retry is worth sending; errors.Is matches it against
// ErrOverloaded.
type OverloadedError struct {
	RetryAfter time.Duration
	Msg        string
}

// Error returns the shed message with the server's retry hint.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("%s (retry after %v)", e.Msg, e.RetryAfter)
}

// Is reports whether target is ErrOverloaded, making every shed match
// errors.Is(err, ErrOverloaded).
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// ErrEpochNotRetained is the errors.Is target for time-travel calls naming
// an epoch the server no longer retains (or never published). It is the
// same value as the embedded engine's ErrEpochNotRetained, so one target
// covers both embedded and remote use. The concrete error is a
// *NotRetainedError carrying the server's message.
var ErrEpochNotRetained = engine.ErrEpochNotRetained

// NotRetainedError reports one as-of or pin call that named an epoch
// outside the server's retention window; errors.Is matches it against
// ErrEpochNotRetained.
type NotRetainedError struct{ Msg string }

// Error returns the server's message prefixed with its origin.
func (e *NotRetainedError) Error() string { return "pargeo server: " + e.Msg }

// Is reports whether target is ErrEpochNotRetained, so a remote
// retention miss matches the same errors.Is target as an embedded one.
func (e *NotRetainedError) Is(target error) bool { return target == ErrEpochNotRetained }

// Options configure a Client.
type Options struct {
	// RequestTimeout bounds each call when > 0: the call fails with
	// context.DeadlineExceeded if its response has not arrived in time,
	// and a connection write stalled past it poisons the client. The
	// per-call context variants (KNNContext, UpdateContext) take the
	// tighter of the two bounds.
	RequestTimeout time.Duration
}

// batch classes for the combiner.
const (
	classRaw    = iota // pre-built request, never merged
	classKNN           // solo k-NN query: mergeable by k
	classInsert        // insert-only update: mergeable
)

// call is one in-flight API call parked on the combiner.
type call struct {
	class int
	k     int       // classKNN
	q     []float64 // classKNN
	ins   Points    // classInsert
	req   *wire.Request

	done  chan struct{}
	lead  chan struct{} // combiner baton
	yield bool          // set with the baton: the batch that passed it resolved a cohort

	// Results, valid after done closes.
	resp wire.Response
	ids  []int32 // classKNN / classInsert member share
	err  error
}

// frame is one request of the in-flight batch still waiting for its
// response: resolve hands the response carrying id, or the stream's
// error, to the frame's calls.
type frame struct {
	id      uint64
	resolve func(*wire.Response, error)
}

// Client is one connection to a pargeo-serve daemon. All methods are
// safe for concurrent use by any number of goroutines; see the package
// documentation for the batching semantics.
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	opts   Options
	dim    int
	shards int

	// The flat-combining batcher (doc.go): calls parked for the next
	// flush, whether a batch is in flight (at most one is), that batch's
	// frames still waiting for a response, the id counter, and the error
	// that poisoned the stream once it is unusable.
	mu       sync.Mutex
	parked   []*call
	inflight bool
	wait     []frame
	nextID   uint64
	sticky   error

	rbuf []byte // response frame buffer, owned by the in-flight batch's reader
}

// Dial connects to a pargeo-serve daemon and performs the Hello
// handshake, learning the engine's dimension and shard count.
func Dial(addr string) (*Client, error) { return DialWith(addr, Options{}) }

// DialWith is Dial with explicit options.
func DialWith(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), opts: opts}
	// Id 0 is reserved for the handshake, and the first frame back must
	// answer it.
	hello := wire.AppendRequest(nil, &wire.Request{Op: wire.OpHello})
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	buf, err := wire.ReadFrame(c.br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	// The Hello response carries no coordinates; dim 1 satisfies the
	// decoder before the real dimension is known.
	resp, _, err := wire.DecodeResponse(buf, 1)
	if err != nil || resp.Op != wire.OpHello || resp.ID != 0 {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: bad response (%v)", err)
	}
	if err := respErr(&resp); err != nil {
		conn.Close()
		return nil, err
	}
	if resp.Dim < 1 {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: server dim %d", resp.Dim)
	}
	c.dim = int(resp.Dim)
	c.shards = int(resp.Shards)
	return c, nil
}

// Dim returns the server engine's point dimensionality.
func (c *Client) Dim() int { return c.dim }

// Shards returns the server engine's shard count.
func (c *Client) Shards() int { return c.shards }

// Close tears the connection down. In-flight calls fail with
// ErrConnClosed. Closing an already-closed client is a no-op.
func (c *Client) Close() error {
	c.fail(ErrConnClosed)
	return c.conn.Close()
}

// respErr maps a response status to the client's typed errors.
func respErr(r *wire.Response) error {
	switch r.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusClosed:
		return ErrEngineClosed
	case wire.StatusOverloaded:
		return &OverloadedError{
			RetryAfter: time.Duration(r.RetryAfterMillis) * time.Millisecond,
			Msg:        r.ErrMsg,
		}
	case wire.StatusNotRetained:
		return &NotRetainedError{Msg: r.ErrMsg}
	default:
		return &RemoteError{Msg: r.ErrMsg}
	}
}

// fail poisons the client: future and in-flight calls all resolve with
// err (wrapped under ErrConnClosed when it isn't the sticky value
// already). First caller wins; later errors are ignored.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.sticky != nil {
		c.mu.Unlock()
		return
	}
	if err != ErrConnClosed {
		err = fmt.Errorf("%w: %w", ErrConnClosed, err)
	}
	c.sticky = err
	wait := c.wait
	c.wait = nil
	c.mu.Unlock()
	for _, f := range wait {
		f.resolve(nil, err)
	}
}

// read is the in-flight batch's reader. It reads responses until none of
// the batch's frames waits, resolving the frame each response's id
// names, then passes the baton. A broken stream, or a response whose id
// no frame waits for, fails the client, which resolves every frame
// still waiting. calls is the number of calls the batch carries.
func (c *Client) read(calls int) {
	for {
		c.mu.Lock()
		if len(c.wait) == 0 {
			c.mu.Unlock()
			c.batchDone(calls)
			return
		}
		c.mu.Unlock()
		f, resp, err := c.next()
		if err != nil {
			c.fail(err)
			c.conn.Close()
			continue
		}
		f.resolve(&resp, nil)
	}
}

// next reads one response and takes the frame it answers out of wait.
// The search is by id, not position: the wire lets a server answer out
// of order.
func (c *Client) next() (frame, wire.Response, error) {
	var err error
	if c.rbuf, err = wire.ReadFrame(c.br, c.rbuf); err != nil {
		return frame{}, wire.Response{}, err
	}
	resp, _, err := wire.DecodeResponse(c.rbuf, c.dim)
	if err != nil {
		return frame{}, resp, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, f := range c.wait {
		if f.id == resp.ID {
			c.wait = slices.Delete(c.wait, i, i+1)
			return f, resp, nil
		}
	}
	return frame{}, resp, fmt.Errorf("response id %d answers no waiting request", resp.ID)
}

// submitCtx parks one call on the combiner and waits for its result. An
// arrival while no batch is in flight becomes a flush leader: it drains
// the queue, merges what merges, and writes one buffer — the same
// leader/baton protocol as the engine's committers, applied to the
// connection's write side. Unlike the engine's (whose combining window
// is the synchronous commit), a flushed batch stays in flight until its
// LAST response arrives (batchDone, called from the batch's reader): the
// network round trip is the combining window, so calls arriving
// meanwhile accumulate into the next batch instead of racing out as
// singletons.
//
// A nil return means the call resolved: ca's result fields are valid. A
// non-nil return means the caller abandoned the call at ctx's deadline
// and must not touch ca — the call is still live inside the batcher (a
// deputy goroutine carries any baton it is later handed, and the batch's
// reader will still resolve it).
func (c *Client) submitCtx(ctx context.Context, ca *call) error {
	ca.done = make(chan struct{})
	ca.lead = make(chan struct{})
	c.mu.Lock()
	if c.inflight {
		c.parked = append(c.parked, ca)
		c.mu.Unlock()
		select {
		case <-ca.done:
			return nil
		case <-ca.lead:
			c.leadDrain(ctx, ca)
		case <-ctx.Done():
			// Abandoned while parked. The call stays queued — pulling it
			// out would reorder the baton bookkeeping under the reader's
			// feet — so a deputy stands in for the departed caller: if the
			// baton arrives, it drains and flushes exactly as the caller
			// would have (the flush resolves ca and every other parked
			// call; skipping it would strand them all).
			go func() {
				select {
				case <-ca.done:
				case <-ca.lead:
					c.leadDrain(ctx, ca)
				}
			}()
			return ctx.Err()
		}
	} else {
		c.inflight = true
		c.mu.Unlock()
		c.leadDrain(ctx, ca)
	}
	select {
	case <-ca.done:
		return nil
	case <-ctx.Done():
		// In flight: the batch's reader (or fail) will close done
		// eventually; the caller just stops waiting.
		return ctx.Err()
	}
}

// leadDrain is the leader's half of the baton protocol: drain everything
// parked, fold the leader's own call in, flush one merged batch, and see
// that its responses are read. The leader's in-flight flag was set
// either at submit (immediate leader) or inherited through the baton
// (batchDone popped it from the queue without clearing the flag). A
// baton from a batch that resolved a cohort comes with one yield first,
// so that callers that batch released on other processors can park in
// time to ride this flush.
//
// A leader whose batch is its own call alone, under a context that
// cannot expire, reads the response itself: nobody else waits on it.
// Any other batch gets a reader goroutine of its own. A leader reading a
// cohort's responses would be a cohort member passing the baton, and
// its own caller could not park again before the next flush; a leader
// whose deadline passes mid-read must be free to leave.
func (c *Client) leadDrain(ctx context.Context, ca *call) {
	if ca.yield {
		runtime.Gosched()
	}
	c.mu.Lock()
	group := append(c.parked, ca)
	c.parked = nil
	c.mu.Unlock()
	c.flush(group)
	if len(group) == 1 && ctx.Done() == nil {
		c.read(1)
	} else {
		go c.read(len(group))
	}
}

// batchDone runs once the in-flight batch fully resolves: leadership
// passes to a parked call (popped here, so no two batons ever reach one
// call), or the flag clears for the next arrival. resolved is the number
// of calls the batch answered. When it is more than one, the callers it
// released get one yield to park before the baton passes, so the whole
// cohort rides the next flush instead of splitting across two round
// trips; a lone caller has nobody to wait for and pays nothing.
func (c *Client) batchDone(resolved int) {
	if resolved > 1 {
		runtime.Gosched()
	}
	c.mu.Lock()
	if len(c.parked) == 0 {
		c.inflight = false
		c.mu.Unlock()
		return
	}
	next := c.parked[0]
	c.parked = c.parked[1:]
	next.yield = resolved > 1
	c.mu.Unlock()
	close(next.lead)
}

// flush merges one drained group into as few wire requests as it can,
// puts their frames in wait, and writes every request in one call. On a
// poisoned client it resolves the group with the sticky error instead.
func (c *Client) flush(group []*call) {
	var (
		reqs    []*wire.Request
		frames  []frame
		inserts []*call
		byK     = map[int][]*call{}
	)
	add := func(req *wire.Request, resolve func(*wire.Response, error)) {
		reqs = append(reqs, req)
		frames = append(frames, frame{resolve: resolve})
	}
	for _, ca := range group {
		switch ca.class {
		case classKNN:
			byK[ca.k] = append(byK[ca.k], ca)
		case classInsert:
			inserts = append(inserts, ca)
		default:
			add(ca.req, func(r *wire.Response, err error) {
				if err == nil {
					if err = respErr(r); err == nil {
						ca.resp = *r
					}
				}
				ca.err = err
				close(ca.done)
			})
		}
	}
	for k, members := range byK {
		q := Points{Dim: c.dim}
		for _, ca := range members {
			q.Data = append(q.Data, ca.q...)
		}
		add(&wire.Request{Op: wire.OpKNN, K: int32(k), Queries: q},
			func(r *wire.Response, err error) {
				if err == nil {
					if err = respErr(r); err == nil && len(r.Neighbors) != len(members) {
						err = &RemoteError{Msg: fmt.Sprintf("KNN batch answered %d of %d queries", len(r.Neighbors), len(members))}
					}
				}
				for i, ca := range members {
					if err == nil {
						ca.ids = r.Neighbors[i]
					}
					ca.err = err
					close(ca.done)
				}
			})
	}
	if len(inserts) > 0 {
		ins := Points{Dim: c.dim}
		rows := make([]int, len(inserts))
		for i, ca := range inserts {
			rows[i] = ca.ins.Len()
			ins.Data = append(ins.Data, ca.ins.Data...)
		}
		add(&wire.Request{Op: wire.OpUpdate, Ins: ins, Del: Points{Dim: c.dim}},
			func(r *wire.Response, err error) {
				if err == nil {
					if err = respErr(r); err == nil && len(r.IDs) != ins.Len() {
						err = &RemoteError{Msg: fmt.Sprintf("insert batch assigned %d ids for %d rows", len(r.IDs), ins.Len())}
					}
				}
				off := 0
				for i, ca := range inserts {
					if err == nil {
						// Ids come back in batch order: each member's
						// share is its contiguous row span.
						ca.ids = r.IDs[off : off+rows[i] : off+rows[i]]
						ca.resp.Epoch = r.Epoch
					}
					off += rows[i]
					ca.err = err
					close(ca.done)
				}
			})
	}

	c.mu.Lock()
	err := c.sticky
	if err == nil {
		for i := range frames {
			c.nextID++
			frames[i].id, reqs[i].ID = c.nextID, c.nextID
		}
		c.wait = frames
	}
	c.mu.Unlock()
	if err != nil {
		for _, f := range frames {
			f.resolve(nil, err)
		}
		return
	}
	var buf []byte
	for _, req := range reqs {
		buf = wire.AppendRequest(buf, req)
	}
	if d := c.opts.RequestTimeout; d > 0 {
		// A peer that stops reading while we stall in Write would
		// otherwise hang the call past any deadline: the deadline fails
		// the write, and the stream (unsynchronized at an unknown write
		// offset) is poisoned with it.
		c.conn.SetWriteDeadline(time.Now().Add(d)) //nolint:errcheck // a failed arm surfaces in Write
	}
	if _, err := c.conn.Write(buf); err != nil {
		// fail resolves every waiting frame, this group's included, and
		// the batch's reader then finds nothing left to read.
		c.fail(err)
	}
}

// callCtx applies Options.RequestTimeout to a public entry point's
// context. The cancel func must always be called.
func (c *Client) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := c.opts.RequestTimeout; d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// roundTrip submits one never-merged request and returns its response.
func (c *Client) roundTrip(req *wire.Request) (wire.Response, error) {
	ctx, cancel := c.callCtx(context.Background())
	defer cancel()
	return c.roundTripCtx(ctx, req)
}

// roundTripCtx is roundTrip under an already-prepared context. A failed
// call returns the zero response with its error.
func (c *Client) roundTripCtx(ctx context.Context, req *wire.Request) (wire.Response, error) {
	ca := &call{class: classRaw, req: req}
	if err := c.submitCtx(ctx, ca); err != nil {
		return wire.Response{}, err
	}
	return ca.resp, ca.err
}

// KNN returns the ids of the k nearest live points to q, sorted by
// increasing distance. Concurrent KNN calls with the same k coalesce
// into one multi-query request.
func (c *Client) KNN(q []float64, k int) ([]int32, error) {
	return c.KNNContext(context.Background(), q, k)
}

// KNNContext is KNN bounded by ctx: at its deadline the call returns
// ctx.Err() without waiting on the wire (the request, if already sent,
// still completes server-side). Options.RequestTimeout, when set, bounds
// the call as well — the tighter deadline wins.
func (c *Client) KNNContext(ctx context.Context, q []float64, k int) ([]int32, error) {
	if len(q) != c.dim {
		return nil, fmt.Errorf("client: query dim %d, engine dim %d", len(q), c.dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("client: k = %d: want k ≥ 1", k)
	}
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	ca := &call{class: classKNN, k: k, q: q}
	if err := c.submitCtx(ctx, ca); err != nil {
		return nil, err
	}
	return ca.ids, ca.err
}

// knnBatch validates and answers every k-NN read that is not merged: one
// request for all queries, at epoch (0 reads live, as on the wire).
func (c *Client) knnBatch(queries Points, k int, epoch uint64) ([][]int32, error) {
	if queries.Len() > 0 && queries.Dim != c.dim {
		return nil, fmt.Errorf("client: query dim %d, engine dim %d", queries.Dim, c.dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("client: k = %d: want k ≥ 1", k)
	}
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpKNN, K: int32(k), Queries: queries, AsOf: epoch})
	return resp.Neighbors, err
}

// rangeOp validates and answers every range read: op is OpRange or
// OpRangeCount, and epoch 0 reads live, as on the wire.
func (c *Client) rangeOp(op byte, box Box, epoch uint64) (wire.Response, error) {
	if len(box.Min) != c.dim || len(box.Max) != c.dim {
		return wire.Response{}, fmt.Errorf("client: box dim %d×%d, engine dim %d", len(box.Min), len(box.Max), c.dim)
	}
	return c.roundTrip(&wire.Request{Op: op, Box: box, AsOf: epoch})
}

// KNNBatch answers many queries in one request (one parallel pass on the
// server). It is never merged with other calls — it already is a batch.
func (c *Client) KNNBatch(queries Points, k int) ([][]int32, error) {
	return c.knnBatch(queries, k, 0)
}

// RangeSearch returns the ids of all live points inside the closed box.
func (c *Client) RangeSearch(box Box) ([]int32, error) {
	resp, err := c.rangeOp(wire.OpRange, box, 0)
	return resp.IDs, err
}

// RangeCount returns the number of live points inside the closed box.
func (c *Client) RangeCount(box Box) (int, error) {
	resp, err := c.rangeOp(wire.OpRangeCount, box, 0)
	return int(resp.Count), err
}

// --- time travel ---------------------------------------------------------
//
// The AsOf variants answer from the server's retained snapshot of an exact
// epoch instead of the live one: the same results forever, however many
// commits happen after it. They fail with ErrEpochNotRetained (errors.Is)
// when the epoch has left the server's retention window — pin it first to
// stop that. As-of calls are never coalesced with live calls (they name a
// different version).

// KNNAsOf is KNN answered from the snapshot at exactly the given epoch
// (epoch ≥ 1; the live KNN is the epoch-free call).
func (c *Client) KNNAsOf(q []float64, k int, epoch uint64) ([]int32, error) {
	if len(q) != c.dim {
		return nil, fmt.Errorf("client: query dim %d, engine dim %d", len(q), c.dim)
	}
	if epoch == 0 {
		return nil, fmt.Errorf("client: as-of epoch 0 (use KNN for live reads)")
	}
	nb, err := c.knnBatch(Points{Data: q, Dim: c.dim}, k, epoch)
	if err != nil {
		return nil, err
	}
	if len(nb) != 1 {
		return nil, &RemoteError{Msg: fmt.Sprintf("KNN answered %d of 1 queries", len(nb))}
	}
	return nb[0], nil
}

// KNNBatchAsOf is KNNBatch against the snapshot at exactly the given
// epoch.
func (c *Client) KNNBatchAsOf(queries Points, k int, epoch uint64) ([][]int32, error) {
	if epoch == 0 {
		return nil, fmt.Errorf("client: as-of epoch 0 (use KNNBatch for live reads)")
	}
	return c.knnBatch(queries, k, epoch)
}

// RangeSearchAsOf is RangeSearch against the snapshot at exactly the given
// epoch.
func (c *Client) RangeSearchAsOf(box Box, epoch uint64) ([]int32, error) {
	if epoch == 0 {
		return nil, fmt.Errorf("client: as-of epoch 0 (use RangeSearch for live reads)")
	}
	resp, err := c.rangeOp(wire.OpRange, box, epoch)
	return resp.IDs, err
}

// RangeCountAsOf is RangeCount against the snapshot at exactly the given
// epoch.
func (c *Client) RangeCountAsOf(box Box, epoch uint64) (int, error) {
	if epoch == 0 {
		return 0, fmt.Errorf("client: as-of epoch 0 (use RangeCount for live reads)")
	}
	resp, err := c.rangeOp(wire.OpRangeCount, box, epoch)
	return int(resp.Count), err
}

// Pin pins the server's latest committed epoch and returns it: the epoch
// stays answerable through the AsOf calls — immune to the server's
// retention GC — until a matching Unpin, or until THIS CONNECTION closes
// (server pins are connection-scoped and do not survive a server restart;
// see the package documentation).
func (c *Client) Pin() (uint64, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpPin})
	return resp.Epoch, err
}

// PinEpoch pins a specific epoch still inside the server's retention
// window (or already pinned), failing with ErrEpochNotRetained otherwise.
func (c *Client) PinEpoch(epoch uint64) (uint64, error) {
	if epoch == 0 {
		return 0, fmt.Errorf("client: pin epoch 0 (use Pin for the latest commit)")
	}
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpPin, Epoch: epoch})
	return resp.Epoch, err
}

// Unpin releases one of this connection's pins of epoch. Unpinning an
// epoch the connection does not hold is a RemoteError — pins belong to
// connections, and one client cannot release another's.
func (c *Client) Unpin(epoch uint64) error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpUnpin, Epoch: epoch})
	return err
}

// Update commits one insert/delete batch pair, mirroring the embedded
// engine's Update: the result's Err carries any failure (including the
// typed ErrEngineClosed and ErrConnClosed). A pure insert may coalesce
// with concurrent pure inserts; an update with deletions always travels
// alone, because the wire reports one aggregate deletion count per
// request and merged deletes could not be attributed back to callers.
func (c *Client) Update(insert, del Points) UpdateResult {
	return c.UpdateContext(context.Background(), insert, del)
}

// UpdateContext is Update bounded by ctx: at its deadline the result
// carries ctx.Err() and the caller must treat the update's fate as
// unknown — the batch may still commit server-side (an abandoned call is
// not a cancelled one; the wire has no cancel). Options.RequestTimeout,
// when set, bounds the call as well.
func (c *Client) UpdateContext(ctx context.Context, insert, del Points) UpdateResult {
	if insert.Len() > 0 && insert.Dim != c.dim {
		return UpdateResult{Err: fmt.Errorf("client: insert dim %d, engine dim %d", insert.Dim, c.dim)}
	}
	if del.Len() > 0 && del.Dim != c.dim {
		return UpdateResult{Err: fmt.Errorf("client: delete dim %d, engine dim %d", del.Dim, c.dim)}
	}
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	if del.Len() == 0 && insert.Len() > 0 {
		ca := &call{class: classInsert, ins: insert}
		if err := c.submitCtx(ctx, ca); err != nil {
			return UpdateResult{Err: err}
		}
		if ca.err != nil {
			return UpdateResult{Err: ca.err}
		}
		return UpdateResult{IDs: ca.ids, Epoch: ca.resp.Epoch}
	}
	resp, err := c.roundTripCtx(ctx, &wire.Request{
		Op:  wire.OpUpdate,
		Ins: Points{Data: insert.Data, Dim: c.dim},
		Del: Points{Data: del.Data, Dim: c.dim},
	})
	return UpdateResult{IDs: resp.IDs, Deleted: int(resp.Deleted), Epoch: resp.Epoch, Err: err}
}

// Insert commits a batch of new points and returns their assigned ids.
func (c *Client) Insert(batch Points) UpdateResult {
	return c.Update(batch, Points{Dim: c.dim})
}

// Delete commits the removal of every live point whose coordinates match
// a batch point.
func (c *Client) Delete(batch Points) UpdateResult {
	return c.Update(Points{Dim: c.dim}, batch)
}

// Epoch returns the server engine's current snapshot epoch.
func (c *Client) Epoch() (uint64, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpEpoch})
	return resp.Epoch, err
}

// Checkpoint asks the server to write a checkpoint and returns the
// highest durable epoch once it completes.
func (c *Client) Checkpoint() (uint64, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpCheckpoint})
	return resp.Epoch, err
}

// Stats returns the server's counters (engine serving stats plus
// connection/request totals) as a name→value map.
func (c *Client) Stats() (map[string]uint64, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64, len(resp.Stats))
	for _, s := range resp.Stats {
		m[s.Name] = s.Value
	}
	return m, nil
}
