// Package client talks to a pargeo-serve daemon: a typed, concurrent
// API over the wire protocol (internal/wire) whose surface mirrors the
// embedded engine's — KNN, RangeSearch, RangeCount, Update/Insert/Delete
// returning the same UpdateResult, plus Epoch, Checkpoint, and Stats.
//
// # Batching
//
// The server-side engine coalesces concurrent updates with flat-combining
// committers; the client applies the trick to every call on the
// connection's write side so that concurrency survives the network hop.
// Calls park on a per-connection combiner. Exactly one merged batch is
// in flight per connection: the first arrival while none is becomes the
// leader, drains everything parked, merges what merges, and writes all
// resulting frames in one call. When the batch's last response arrives,
// leadership passes to a call that parked meanwhile. The round trip is
// the combining window, so under load whole groups of goroutine calls
// cross the wire as single requests and reach the engine as single
// batches:
//
//   - KNN calls sharing a k merge into one multi-query request, answered
//     by one parallel pass over one snapshot.
//   - Pure inserts concatenate into one update request — one commit, one
//     fsync — and the assigned ids are split back by row span.
//   - Updates with deletions, range queries, and the admin calls never
//     merge (a merged deletion count could not be attributed back to
//     callers), but they share the flush's single write.
//
// No timers are involved: like the engine's write combiners, batches
// form only from calls that are genuinely concurrent, so an idle
// connection adds no latency, and the more load arrives during a round
// trip, the deeper the next batch merges.
//
// # Who reads a batch
//
// The client runs no goroutine of its own: an idle connection has nobody
// parked on it. Each batch is read by one reader, which matches every
// response to its request by id (the wire lets a server answer out of
// order), resolves that request's callers, and passes the baton after
// the batch's last response. A leader whose batch holds only its own
// call, under a context that cannot expire, is that reader itself, so a
// lone caller's round trip needs no hand-off. Any other batch gets a
// reader goroutine that ends with the batch: a leader with a deadline
// must be free to leave when it passes, and a leader reading a cohort's
// responses would be a cohort member passing the baton, unable to park
// again in time for the next flush. A response whose id no request
// waits for, like a broken stream, poisons the connection.
//
// # One round trip per cohort
//
// A batch's responses do not land together: the server answers a merged
// k-NN frame before it commits the batch's insert, and each response
// releases its callers as it arrives. Callers in a closed loop come
// straight back, and the ones the last response released must park
// before the baton passes, or the next flush leaves without them and
// they take the round trip after it, on their own. Without help, a
// connection with k-NN callers and one insert caller alternates a k-NN
// flush and an insert flush, two round trips per cycle. So when the
// batch that just completed resolved more than one call, the batch's
// reader yields once (runtime.Gosched) before it passes the baton, and
// the new leader yields once before it drains: every caller that batch
// released is back in the queue and rides the next flush. A batch that
// resolved a single call has no cohort to wait for, so a lone caller
// never yields: on a connection with one caller a yield would only delay
// its next call behind whatever else is runnable.
//
// # Overload and deadlines
//
// A server past its admission budgets sheds requests instead of queueing
// them. A shed call fails fast with an *OverloadedError carrying the
// server's retry-after hint; errors.Is(err, ErrOverloaded) matches it.
// The client never retries: whether and when to resend a shed call is
// the caller's policy, and OverloadedError.RetryAfter is the server's
// hint for it. Options.RequestTimeout (and the KNNContext /
// UpdateContext variants) bound each call: at the deadline the caller
// gets context.DeadlineExceeded immediately, while the batcher's
// internal bookkeeping — including combiner-baton handoff for a call
// that was parked — is carried out by a deputy on its behalf, so an
// abandoned call can never wedge the connection.
//
// # Errors
//
// Failures are typed, never string-matched: ErrEngineClosed (the same
// value as the embedded engine's closed error) when the server is
// shutting down, ErrConnClosed when this client's stream is gone,
// *OverloadedError (matching ErrOverloaded) when the request was shed,
// and *RemoteError for other server-side failures. A broken stream
// poisons the client; every in-flight and future call resolves promptly.
//
// # Durability
//
// The daemon drains in-flight requests before closing its engine, so any
// update this client saw acknowledged is covered by the engine's
// durability contract (see the repository README): on a SyncEvery=1
// server an acknowledged epoch survives any crash; in relaxed mode it is
// bounded by the group-commit window, exactly as for embedded use.
//
// # Time travel and pins
//
// The as-of variants (KNNAsOf, KNNBatchAsOf, RangeSearchAsOf,
// RangeCountAsOf) answer against a retained historical epoch instead of
// the live snapshot, and Pin/PinEpoch/Unpin manage server-side pins
// that keep an epoch resolvable past the server's retention window. A
// pin taken through this client is owned by its connection: other
// connections cannot release it, and Close (or a broken stream)
// releases every pin the connection still holds — a crashed analytics
// client cannot leak retained memory on the server. An epoch outside
// the window fails with a *NotRetainedError matching
// ErrEpochNotRetained.
//
// For where this package sits in the whole system — the layer diagram
// and the request lifecycles through client, server, engine, and WAL —
// see docs/ARCHITECTURE.md at the repository root.
package client
