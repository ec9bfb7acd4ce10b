// Package engine is a concurrent spatial query service over Morton-sharded
// BDL-trees: it makes the batch-dynamic kd-tree of §5 safe — and fast — to
// share among many client goroutines issuing point queries and small
// updates, and scales the write path past a single commit stream by
// partitioning space into shards whose updates commit independently.
//
// # Sharding
//
// Space is partitioned into S contiguous Morton-code ranges (S ≈
// GOMAXPROCS via AutoShards, or Options.Shards). The boundaries are
// chosen by sampling the Morton codes of the first committed insertion
// (the "founding commit") and placing them at sample quantiles. Each shard
// owns one BDL-tree plus its persistent (copy-on-write) version chain and
// its own flat-combining committer. A spatial workload partitions
// naturally along the Morton curve: most small update batches are
// spatially local, fall entirely into one shard, and therefore commit
// without ever contending with the other shards' write streams.
//
// The founding partition is the engine's partition for the rest of its
// life; recovery restores it from the checkpoint (or refounds it over the
// recovered points when replay changed the live set). A point outside the
// founding world box is clamped by the Morton encoding into a boundary
// cell, so it routes to an edge shard, and the partition's cell geometry
// covers clamped points, so pruning never drops one. The partition is
// written once — by recovery, before the engine serves, or by the
// founding commit, which runs on the global commit stream while no shard
// stream exists yet — so a committer never has to re-validate the
// partition it routed under. An online rebalancer that migrated the
// partition as load moved was measured and deleted: the pargeo-serve
// daemon with it switched off showed no resolvable difference under the
// benchmark's serve-mixed workload, and an S = 4 engine loaded with
// 500 k points in 10 k batches and given 200 more 512-point inserts made
// no migration at all.
//
// # Snapshot protocol and two-phase publish
//
// The engine never lets a query and an update touch the same mutable
// state. All reads go through an immutable published Snapshot — the
// *vector* of per-shard tree versions plus its epoch — held behind a
// single atomic pointer:
//
//	queries:  load snap -> traverse the (frozen) shard versions
//	updates:  phase 1: prepare affected shards' next versions copy-on-write
//	          phase 2: swap the shard-vector pointer (one atomic store)
//
// Phase 1 is the expensive part (persistent BDL batch insertion/deletion,
// tree rebuilds) and runs outside any global lock: each shard's version
// preparation is guarded only by that shard's commit lock, so disjoint
// shards prepare and commit truly in parallel. Phase 2 is tiny — an O(S)
// pointer-vector copy and an epoch increment under one short publish lock
// — so the serialized fraction of a commit does not grow with batch size
// or tree size.
//
// There is one commit path (Engine.commit), parameterised by the set of
// shards a commit group touches: lock those shards' commit locks in
// ascending order (deadlock-free against every other committer), prepare
// each affected shard's next version — inline for one shard, in parallel
// via the scheduler for several — publish them with ONE vector swap, and
// acknowledge each request. A group confined to one shard is the set {s};
// a batch that spans shards is a larger set; the founding commit is every
// shard, with the prepare step swapped for a bulk build of partition and
// trees. Readers therefore observe a multi-shard batch all-or-nothing:
// there is no instant at which some of its shards are visible and others
// are not. Engine.publish is the only function that installs a snapshot
// (commits and the founding commit alike) and Engine.finish the only one
// that produces an acknowledgement.
//
// Consistency guarantee: every query runs entirely against one snapshot
// load. The counts, ids, and neighbors it returns are
// exactly those of some epoch's point set; epochs observed by any single
// goroutine are monotonically non-decreasing; and Update blocks until the
// snapshot containing its whole batch is published, so a client's own
// writes are visible to its subsequent queries. Global ids are assigned
// from one engine-wide counter (block-reserved per update), unique across
// shards.
//
// # Write combining
//
// Concurrent small updates coalesce per routing target, amortizing the
// BDL-tree's batch cost exactly as the paper's batch-dynamic design
// intends. The first writer to arrive at a shard's (or the global
// stream's) combiner becomes the committer; writers that arrive while a
// commit is in flight park on a pending list, and the whole list commits
// as one group. A committer serves exactly one group, then hands the baton
// to a pending waiter, so no caller is conscripted indefinitely. Within a
// group, deletion batches apply in arrival order (each result reports its
// own removal count), all before any insertion.
//
// The combiner pays where writers contend for a shard. On a 2-vCPU host,
// 8 writers (no readers) each churning 512-point batches over 200 k 3-D
// points committed more updates per second than a commit-per-request
// copy of the engine, over four alternating 3 s runs: ×1.4–2.1 at S=1
// (4.4–4.5 updates per commit), ×1.3–1.7 at S=2, ×1.25–1.4 at S=4. With
// 16 readers beside the writers, groups shrink to ≈ 1.1–1.3 and the two
// are even. `go run ./cmd/pargeo-bench -experiment engine` re-runs the
// writers-alone row and prints each row's write group (Updates/Commits).
// Every update is admitted; load shedding belongs to the serving layer
// (internal/server's class budgets).
//
// # Query fan-out
//
// Queries prune and fan out over the shards using the partition's
// conservative Morton-range geometry (internal/morton's aligned-cell
// decomposition; clamped and rounding-displaced points are covered, so
// pruning never drops an answer):
//
//   - Range queries test the query box against each shard's cell boxes and
//     search only overlapping shards, in parallel via one parlay.For over
//     them, concatenating the results.
//   - k-NN queries visit shards nearest-first through one shared k-NN
//     buffer: the buffer's k-th-distance bound shrinks as shards are
//     visited and prunes — with a sorted visit order, usually truncates —
//     the remaining shards. The bounded buffer (kdtree.KNNBuffer, the
//     paper's k-NN buffer) is simultaneously the merge structure: feeding
//     every visited shard through it yields the exact global k nearest.
//
// Reads do not combine: k-NN traversals are independent, so a query runs
// on the caller's goroutine against one snapshot load, drawing its k-NN
// buffer from a pool per k. Snapshot.KNN answers a batch of queries as
// one data-parallel pass. Clients that need several queries against the
// same version use Engine.Snapshot and query the handle directly.
//
// # Storage
//
// Tree versions are derived with bdltree.PersistentUpdate — a commit
// group's deletions, member by member, then its insertions, with one
// rebuild of levels for all of it — which exploits the logarithmic method's
// own structure: an insertion rebuilds a prefix of the static trees and
// shares the rest with the parent version untouched; a deletion clones only
// the per-tree tombstone bitmaps (and rebuilds a tree it left below half
// capacity). A commit is therefore cheap, proportional to
// the structural change of its own shard, and a superseded version stays
// valid for readers that loaded it before the swap.
//
// # Retention and time travel
//
// Snapshots are already immutable versions; retention merely keeps some
// of them resolvable after they are superseded. With Options.RetainEpochs
// = N the engine holds the last N published snapshots in a ring and
// Engine.AsOf(epoch) returns any of them — a read-only handle answering
// KNN, range, and analytics queries against exactly that epoch's point
// set. Because versions are persistent (copy-on-write), a retained epoch
// costs only the structure its own commit rebuilt, not a copy of the
// dataset; Stats reports the marginal footprint as RetainedBytes.
//
// Engine.Pin (or PinEpoch) takes a reference that keeps a version
// resolvable past the ring until the matching Snapshot.Release — the
// idiom for long analytics jobs (see analytics.go: KNNGraph,
// CoreDistances, AllKNN) that must read one consistent version while
// writers keep committing past it. Pins are refcounted per epoch;
// Release panics on over-release rather than corrupting the table.
// RetainWatermark is the oldest currently resolvable epoch — the GC
// boundary the ring trim advances.
//
// Every installed snapshot feeds the ring — publish (commits and the
// founding commit) and recovery. Recovery RESETS the ring: the recovered epoch
// is not contiguous with anything the process held before, and
// pre-restart history (including pins, which are per-process serving
// state, or per-connection state at the server layer) does not survive —
// see examples/analytics for the end-to-end shape.
//
// # Durability
//
// With Options.Durability set (construct via Open, not New), the engine
// writes every commit ahead to a segmented, CRC-framed log
// (internal/wal) before the snapshot swap that makes it visible:
//
//	publish: append WAL record (under the publish lock) -> swap snapshot
//	ack:     after the record's group-commit fsync (SyncEvery<=1), or
//	         immediately, with a background fsync every K records
//	         (SyncEvery=K>1: prefix durability to the last sync)
//
// The ack rule is per request, decided in one place (Engine.finish): a
// request that changes nothing — an empty update, a delete that matches
// nothing — never reports an epoch above the durable prefix, even when it
// shares a commit group with requests that do. It has no record in the
// group's epoch, so it is acknowledged at the last fsync-covered epoch
// (SyncEvery>1) or after the log tail is fsynced (SyncEvery<=1); only
// requests whose rows are in the group's record report the group's epoch.
//
// The append sits INSIDE the publish critical section, so the log's
// record order is exactly the epoch order and a failed append publishes
// nothing (the group is rejected, UpdateResult.Err). The fsync wait sits
// OUTSIDE the shard commit locks, so parallel shard committers share
// group-commit fsyncs instead of serializing on the disk.
//
// Engine.Checkpoint serializes the current snapshot — every shard tree's
// live rows streamed out of its levels' own arrays (bdltree.EachLive →
// wal.WriteCheckpoint, one 64 KiB buffer whatever the engine holds), plus
// the partition geometry, epoch, and id watermark — into an
// atomically-renamed checkpoint file, then truncates WAL segments (and
// older checkpoints) it supersedes. Snapshots are immutable, so a checkpoint is a
// consistent cut at its epoch no matter how many commits land while it
// is written; Durability.CheckpointEvery runs one in the background
// every K commits.
//
// Open recovers by loading the newest valid checkpoint (falling back
// past corrupt ones), replaying WAL records after its epoch — each
// record re-validated by CRC, a torn tail discarded, any epoch gap
// rejected loudly — and rebuilding the shard trees from the result.
// Everything acknowledged under SyncEvery=1 survives any crash;
// relaxed-mode acks survive to the last background sync. After any WAL
// write or sync error the engine fail-stops: the error is sticky and
// every subsequent update (including no-ops) is rejected, because "acked
// means durable" cannot be promised past an unknown disk state.
//
// All durable file I/O goes through the wal.VFS interface; tests inject
// wal.MemFS to enumerate every crash point deterministically (see
// crash_matrix_test.go).
//
// For where this package sits in the whole system — the layer diagram,
// the lifecycle of an update and of a k-NN query through client, server,
// engine, and WAL, and the cross-layer invariants — see
// docs/ARCHITECTURE.md at the repository root.
package engine
