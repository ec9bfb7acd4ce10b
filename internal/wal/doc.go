// Package wal implements the engine's durability layer: a segmented,
// CRC-framed write-ahead log plus flat checkpoint files, all behind a
// tiny VFS interface so tests can inject crashes deterministically.
//
// # Record format
//
// Every log record is a length-prefixed, CRC32-C-protected frame
// ([4] payload length, [4] CRC, payload). The payload carries a kind
// byte, the engine epoch the record publishes, and a kind-specific body.
// A commit record (KindCommit) holds one commit group exactly as the
// engine applies it: every delete batch in request order, then the
// combined insert batch with its assigned ids. Because the engine's
// group semantics are routing-independent (final state = previous state
// − all delete matches + all inserts, regardless of how the group was
// fanned out across shards), one record per published epoch is
// sufficient for replay. A note record (KindNote) carries no data and
// exists so that epochs published without data — the rebalancer swapping
// partitions — keep the log's epoch sequence gap-free.
//
// Records live in segment files (wal-<seq>.seg), each beginning with a
// CRC-protected header naming the first epoch appended to it. Appends
// rotate to a fresh segment past a size threshold; rotation fsyncs the
// old segment before abandoning it, so acked records are never stranded
// un-durable. Checkpoints prune segments whose contents the checkpoint
// fully covers, using only the headers' first-epoch fields.
//
// # Group commit
//
// With SyncEvery=1, an append is acknowledged only after the record is
// fsynced — but concurrent committers share fsyncs: WaitDurable elects
// one fsync-er at a time, and its single Sync covers every record
// appended before it started, so parallel single-shard commits pay one
// disk flush per batch of concurrent commits rather than one each. With
// SyncEvery=K>1, appends are acknowledged immediately and the log
// fsyncs inline every K records: a crash may lose up to the last K−1
// acknowledged records, but never a non-suffix subset (prefix
// durability to the most recent sync).
//
// Any write or sync failure poisons the log permanently. Past the last
// successful sync the durable state is unknown, and fail-stop is the
// only behavior consistent with "acknowledged means durable".
//
// # Recovery invariants
//
// A checkpoint is written in constant memory: WriteCheckpoint takes the
// point count and a source that yields runs of rows — the engine hands it
// the tree levels' own arrays — and streams header, every id, every
// coordinate and the trailing CRC through one 64 KiB buffer. The points
// are therefore in the source's order (shard by shard, level by level, kd
// leaf order within a level), which means nothing: restore routes every
// row through the stored partition again. Checkpoint.Encode produces the
// same bytes in memory and is what the decoder's tests and fuzz corpus are
// built from.
//
// Recovery loads the newest checkpoint that decodes cleanly (checkpoint
// files are written with write-sync-rename, so a partial checkpoint is
// never visible under its final name), rebuilds the trees from its flat
// point set, and replays WAL records with epochs past the checkpoint's.
// ScanLog enforces two invariants:
//
//   - Torn tails are discarded, never "repaired": within a segment,
//     decoding stops at the first frame whose length, CRC, or structure
//     is invalid. A fresh segment is started on every open, so a torn
//     tail can never be appended into.
//   - Epochs are contiguous: across the surviving records, each epoch
//     must be exactly the predecessor's +1 (and the chain must reach
//     back to the checkpoint). Any gap means a needed record was lost,
//     and recovery fails loudly instead of resurrecting partial history.
//
// Together with the engine's commit protocol (the record is appended
// and, for SyncEvery=1, fsynced before the batch is acknowledged), this
// yields prefix durability: recovery restores exactly a prefix of the
// submitted commit history that includes every acknowledged batch — no
// lost acked batch, no partially applied batch.
//
// For where this package sits in the whole system — how the engine's
// commit path threads through the log and what recovery restores — see
// docs/ARCHITECTURE.md at the repository root.
package wal
