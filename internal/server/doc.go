// Package server serves an engine over the wire protocol. One Server
// wraps one engine and one net.Listener, and each accepted connection gets
// one goroutine that runs its requests to completion: it reads frames
// through a buffer, answers every complete one inline, in arrival order,
// and collects the responses. They go out in one write whenever the
// buffer holds no complete frame (the next read could block), and also
// before a write-class request starts, so the k-NN answers of a client's
// merged batch leave while the batch's insert commits. A client flush of
// a k-NN frame and an insert frame thus costs the server one read, two
// inline engine calls and two writes, with no goroutine spawned and no
// lock taken on the connection. The server does no merging of its own:
// the client has already merged concurrent callers into one frame per
// kind before they reach it. Every read answers from one snapshot, the
// live one or the retained epoch its as-of names, on the connection's
// goroutine.
//
// # Admission control
//
// A server built with NewWithLimits bounds the number of concurrently
// executing requests per class — reads (KNN, RangeSearch, RangeCount),
// writes (Update), and control (Epoch, Checkpoint, Stats) — across its
// connections, so that one class saturating cannot starve the others of
// engine passes. A request arriving at a full class is answered
// immediately with StatusOverloaded and a retry-after hint priced from
// the class's smoothed service time; it is never queued server-side. That keeps the
// server's response latency flat under overload: the backlog lives in
// the clients, which can apply deadlines and backoff the server cannot.
// Hello is exempt (the handshake must always succeed so a client can
// learn enough to back off), and shutdown still wins — a request racing
// Shutdown gets StatusClosed, not StatusOverloaded. These budgets are
// the only admission layer: the engine admits every request the server
// passes it.
//
// Per-class shed counters and in-flight gauges join the engine counters
// in the Stats op ("shed_reads", "inflight_writes", ...).
//
// # Shutdown
//
// Shutdown is a drain, not an abort: Shutdown stops the accept loop,
// fails fresh requests with StatusClosed, waits for every in-flight
// request to commit and its response to be written (including responses
// already answered but still waiting in a connection's buffer for the
// request behind them), then closes the connections, which releases
// their pins. Only after Shutdown returns does the caller close the
// engine — so an acknowledged response always corresponds to an update
// the engine's durability contract covers.
//
// For where this package sits in the whole system — the layer diagram
// and the request lifecycles through client, server, engine, and WAL —
// see docs/ARCHITECTURE.md at the repository root.
package server
