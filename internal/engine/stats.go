package engine

// Stats is a point-in-time snapshot of the engine's serving counters.
// Updates/Commits is the write combiner's coalescing ratio: how many
// concurrent update requests each commit absorbed on average.
type Stats struct {
	// Epoch is the current snapshot's epoch.
	Epoch uint64
	// DurableEpoch is the highest epoch covered by a completed fsync. On
	// a non-durable engine it equals Epoch (there is no weaker prefix to
	// report).
	DurableEpoch uint64
	// Size is the number of live points.
	Size uint64
	// Shards is the shard count.
	Shards uint64
	// Rebalances counts completed shard migrations and repartitions.
	Rebalances uint64
	// Updates counts update requests acknowledged without error.
	Updates uint64
	// Commits counts snapshot publishes: commit groups that changed
	// state. No-op groups acknowledge without publishing.
	Commits uint64
	// Queries counts reads answered: one per Engine.KNN, RangeSearch and
	// RangeCount call, and one per query row of a Snapshot.KNN, whether
	// the snapshot is live, retained or pinned.
	Queries uint64
	// QueryGroups equals Queries: reads run on the caller's goroutine, so
	// every query is its own pass. It stays only because the benchmark's
	// engine.read_group_size row reads it, and goes with that row
	// (ROADMAP, referee defect (e)).
	QueryGroups uint64
	// Shed is always 0: the server's class budgets are the only admission
	// layer, and the engine refuses no update for load. It stays only
	// because the benchmark's engine.shed row reads it, and goes with that
	// row (ROADMAP, referee defect (e)).
	Shed uint64
	// RetainedEpochs is the current length of the MVCC retention ring:
	// how many recent epochs (the live one included) resolve through
	// AsOf. At most Options.RetainEpochs; at least 1.
	RetainedEpochs uint64
	// PinnedEpochs is the number of distinct epochs currently pinned
	// (Pin/PinEpoch without a matching Release), whether or not they are
	// also inside the retention ring.
	PinnedEpochs uint64
	// RetainedBytes estimates the heap bytes held only by retention:
	// tree structure reachable from retained or pinned snapshots but not
	// from the live one, with structure shared between old versions
	// counted once. Zero when nothing but the live epoch is held.
	RetainedBytes uint64
}

// Stats returns the engine's serving counters. The counters are read
// individually (not under a lock), so ratios between them are approximate
// under concurrent load; each counter is itself exact.
func (e *Engine) Stats() Stats {
	snap := e.snap.Load()
	s := Stats{
		Epoch:        snap.epoch,
		DurableEpoch: snap.epoch,
		Size:         uint64(snap.size),
		Shards:       uint64(e.nshard),
		Rebalances:   e.rebalanced.Load(),
		Updates:      e.statUpdates.Load(),
		Commits:      e.statCommits.Load(),
		Queries:      e.statQueries.Load(),
	}
	s.QueryGroups = s.Queries
	if e.log != nil {
		s.DurableEpoch = e.log.DurableEpoch()
	}
	s.RetainedEpochs, s.PinnedEpochs, s.RetainedBytes = e.retainStats()
	return s
}
