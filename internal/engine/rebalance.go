package engine

import (
	"math"
	"sort"
	"time"

	"pargeo/internal/bdltree"
	"pargeo/internal/geom"
	"pargeo/internal/morton"
)

// Online repartitioning. The founding commit's partition is a guess frozen
// at the first insertion: a workload that drifts or concentrates afterward
// piles every write onto one shard's committer (collapsing to a single
// commit stream) and, once points leave the founding world box entirely,
// aliases all of them into the boundary cells of the edge shards. The
// rebalancer tracks per-shard load online and migrates the partition to
// follow it, in two granularities:
//
//   - split/merge: the hot shard's Morton range is cut at the weighted
//     median code of its live points and the two coldest adjacent shards
//     are fused, keeping S constant (so the per-shard lock/combiner vector
//     never changes shape). Only the three affected trees are rebuilt; the
//     rest of the shard vector is reused as-is.
//   - full repartition: when enough inserted rows have landed outside the
//     partition's world box, every boundary is re-placed at fresh quantiles
//     under a widened world (live bounding box plus margin), so clamped
//     codes stop aliasing and the drifted mass spreads over all S shards.
//
// Migration safety: a migration runs with EVERY shard commit lock held (in
// ascending order, the same protocol every committer uses, so it cannot
// deadlock against them), which freezes the write path while the
// affected trees are rebuilt from their sorted live points. The new
// partition and the new shard vector are then published in ONE snapshot
// pointer swap under the publish lock — queries, which only ever read a
// snapshot's coupled (partition, tree-vector) pair, observe the migration
// atomically and keep seeing every committed batch all-or-nothing.
// Committers that routed a batch under the old partition detect the swap
// under their shard locks (see commit) and re-route.

// RebalanceAction reports what a rebalance pass did.
type RebalanceAction int

// Rebalance pass outcomes.
const (
	// RebalanceNone: the partition was left unchanged.
	RebalanceNone RebalanceAction = iota
	// RebalanceSplitMerge: one hot shard was split at its weighted median
	// code and two cold adjacent shards were merged.
	RebalanceSplitMerge
	// RebalanceRepartition: the whole partition was rebuilt under a widened
	// world box.
	RebalanceRepartition
)

// Rebalancer policy constants.
const (
	// rebalanceInterval is the background loop's pass period.
	rebalanceInterval = 25 * time.Millisecond

	// rebalanceFactor is the hot-shard threshold: a shard is split when
	// its load exceeds rebalanceFactor times the shard average.
	rebalanceFactor = 2.0

	// driftMinRows and driftFraction gate the full repartition: it fires
	// once at least driftMinRows inserted rows — and at least driftFraction
	// of the live size — have routed outside the world box.
	driftMinRows  = 256
	driftFraction = 1.0 / 32

	// loadEWMAWeight converts the committed-batch EWMA (recent rows per
	// commit) into live-size units for the hot-shard score, so a shard
	// absorbing the whole write stream reads hot even while deletions keep
	// its live size flat.
	loadEWMAWeight = 16.0

	// minHotRows is the smallest committed-rows EWMA the write-skew
	// trigger takes seriously; below it a shard's "heat" is noise.
	minHotRows = 128.0

	// loadDecay cools every shard's EWMA each pass, so a shard stays hot
	// only while commits keep landing on it.
	loadDecay = 0.9

	// worldPad widens each repartitioned world-box side by this fraction of
	// the live extent, giving a drifting workload headroom before the next
	// repartition; successive repartitions of a steady drift are therefore
	// geometrically spaced.
	worldPad = 0.5
)

// Rebalances returns the number of completed partition migrations
// (split/merge and full repartitions).
func (e *Engine) Rebalances() uint64 { return e.rebalanced.Load() }

// ShardLoads returns each shard's current load score: live size plus the
// weighted committed-batch EWMA the rebalancer scores hot shards by.
func (e *Engine) ShardLoads() []float64 {
	snap := e.snap.Load()
	out := make([]float64, e.nshard)
	for i := range out {
		sz := 0
		if i < len(snap.trees) {
			sz = snap.trees[i].Size()
		}
		out[i] = float64(sz) + loadEWMAWeight*e.shards[i].loadEWMA()
	}
	return out
}

// rebalanceLoop is the background rebalancer started by New when
// Options.Rebalance is set on a sharded engine; Close stops it.
func (e *Engine) rebalanceLoop() {
	t := time.NewTicker(rebalanceInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			e.Rebalance()
		}
	}
}

// Rebalance runs one rebalance pass synchronously and reports what it did.
// It is a no-op on an unsharded engine and before the founding commit.
// Safe for concurrent use (migrating passes serialize on the shard commit
// locks); tests and callers that disable the background loop can drive
// migration deterministically through it.
//
// A pass is cheap when nothing is wrong: the triggers are evaluated
// lock-free against the published snapshot and the atomic EWMAs, so a
// balanced engine's write path is never frozen by the ticker. Only a
// firing trigger escalates to the locked phase (every shard commit lock,
// ascending — queries keep running against the snapshot throughout), where
// the decision is re-derived before acting. A locked pass that fires a
// trigger but finds no admissible migration (unsplittable codes, vetoed
// cuts, no merge pair) backs off exponentially, so a persistently
// triggered-but-unactionable shard cannot keep re-paying the locked
// analysis every tick.
func (e *Engine) Rebalance() RebalanceAction {
	if e.nshard < 2 || e.part.Load() == nil {
		return RebalanceNone
	}
	for _, sh := range e.shards {
		sh.scaleLoad(loadDecay)
	}
	if d := e.triggers(e.snap.Load()); !d.fired {
		return RebalanceNone
	}
	if e.skipPasses.Load() > 0 {
		e.skipPasses.Add(-1)
		return RebalanceNone
	}

	for _, sh := range e.shards {
		sh.commitMu.Lock()
	}
	defer func() {
		for i := e.nshard - 1; i >= 0; i-- {
			e.shards[i].commitMu.Unlock()
		}
	}()

	snap := e.snap.Load()
	part := e.part.Load() // stable: swaps require the locks we hold
	act := e.rebalanceLocked(snap, part)
	if act == RebalanceNone {
		// Triggered but nothing actionable: exponential backoff (capped at
		// 63 passes, ~1.6 s of the background loop) before the next locked
		// attempt.
		next := e.noopStreak.Add(1)
		if next > 6 {
			next = 6
		}
		e.skipPasses.Store(1<<next - 1)
	} else {
		e.noopStreak.Store(0)
		e.skipPasses.Store(0)
		e.rebalanced.Add(1)
	}
	return act
}

// decision is one evaluation of the migration triggers.
type decision struct {
	fired       bool
	repartition bool      // drift trigger: full repartition
	hot         int       // shard to split (when !repartition)
	writeTrig   bool      // hot fired on write share rather than score
	scores      []float64 // per-shard size + weighted-EWMA scores
	ewmas       []float64 // per-shard committed-rows EWMAs
}

// triggers evaluates the migration triggers against a snapshot: the drift
// counter (full repartition) and the two hot-shard conditions. Pure reads
// — callable lock-free as the pre-check, and re-run under the locks before
// acting.
func (e *Engine) triggers(snap *Snapshot) decision {
	if snap.size == 0 || len(snap.trees) != e.nshard {
		return decision{}
	}
	if oow := e.outOfWorld.Load(); oow >= driftMinRows && float64(oow) >= driftFraction*float64(snap.size) {
		return decision{fired: true, repartition: true}
	}
	scores := make([]float64, e.nshard)
	ewmas := make([]float64, e.nshard)
	total, totalE := 0.0, 0.0
	hot, hotE := 0, 0
	for i := range scores {
		ewmas[i] = e.shards[i].loadEWMA()
		scores[i] = float64(snap.trees[i].Size()) + loadEWMAWeight*ewmas[i]
		total += scores[i]
		totalE += ewmas[i]
		if scores[i] > scores[hot] {
			hot = i
		}
		if ewmas[i] > ewmas[hotE] {
			hotE = i
		}
	}
	// Two independent hot triggers: a shard dominating by combined score
	// (size imbalance), or one absorbing a disproportionate share of the
	// recent write rows even while its size stays unremarkable — the
	// signature of a hot spot confined to a sliver of a shard.
	if scores[hot] > rebalanceFactor*total/float64(e.nshard) {
		return decision{fired: true, hot: hot, scores: scores, ewmas: ewmas}
	}
	if ewmas[hotE] >= minHotRows && ewmas[hotE] > rebalanceFactor*totalE/float64(e.nshard) {
		return decision{fired: true, hot: hotE, writeTrig: true, scores: scores, ewmas: ewmas}
	}
	return decision{}
}

// rebalanceLocked re-derives the triggers under all shard locks and
// executes the indicated migration.
func (e *Engine) rebalanceLocked(snap *Snapshot, part *partition) RebalanceAction {
	d := e.triggers(snap)
	switch {
	case !d.fired:
		return RebalanceNone
	case d.repartition:
		if e.repartitionLocked(snap) {
			return RebalanceRepartition
		}
		return RebalanceNone
	default:
		return e.splitMergeLocked(snap, part, d.scores, d.ewmas, d.hot, d.writeTrig)
	}
}

// splitMergeLocked splits the hot shard's Morton range at the weighted
// median code (the median of its recent-write sample, falling back to its
// live-point median) and merges the coldest adjacent pair, so the shard
// count stays S. writeTrig selects the merge guard: a size-triggered split
// refuses a merge that would just mint the next hot shard by score; a
// write-triggered split refuses one that would concentrate the write
// stream again, but happily fuses big COLD shards. Returns RebalanceNone
// when the hot shard cannot be split (too few points, all codes equal) or
// no admissible merge pair exists.
func (e *Engine) splitMergeLocked(snap *Snapshot, part *partition, scores, ewmas []float64, hot int, writeTrig bool) RebalanceAction {
	S := e.nshard
	lo, hi := part.codeRange(hot)
	codes, pts, ids := snap.trees[hot].ExtractRange(part.world, lo, hi)
	if len(ids) != snap.trees[hot].Size() {
		// A live point encodes outside its shard's range: the partition
		// invariant is broken (should be impossible). Rebuilding everything
		// restores it; losing points to a bad incremental cut must not.
		if e.repartitionLocked(snap) {
			return RebalanceRepartition
		}
		return RebalanceNone
	}
	if len(codes) < 2 || codes[0] == codes[len(codes)-1] {
		return RebalanceNone // nothing to separate
	}
	// Weighted median cut: the median Morton code of the shard's recent
	// committed rows, so the boundary lands in the middle of the WRITE
	// load — a hot spot occupying a sliver of a big shard is isolated in
	// one or two splits, where a population median would dilute it across
	// O(log) splits. Fallback: the live-point median.
	cutCode, ok, streamsDivide := e.writeMedianCut(hot, part, lo, hi, codes)
	if ok && !streamsDivide {
		// The write sample says recent update requests would STRADDLE any
		// boundary near the write median — a cut here would turn the hot
		// stream's single-shard commits into multi-shard ones instead of
		// dividing it. For a write-triggered split that means the split
		// cannot help at all: leave the partition alone. For a
		// size-triggered split the imbalance is real and must still be
		// fixed, but by a clean full repartition (fresh quantiles, no
		// boundary through the live write region) rather than a cut that
		// would sabotage the write path it is trying to relieve.
		if writeTrig {
			return RebalanceNone
		}
		if e.repartitionLocked(snap) {
			return RebalanceRepartition
		}
		return RebalanceNone
	}
	if !ok {
		pivot := codes[len(codes)/2]
		if pivot > codes[0] {
			cutCode = pivot - 1
		} else {
			j := sort.Search(len(codes), func(i int) bool { return codes[i] > pivot })
			cutCode = codes[j] - 1
		}
	}
	cutIdx := sort.Search(len(codes), func(i int) bool { return codes[i] > cutCode })

	// Build the post-split span list: every shard's inclusive upper bound
	// and tree, with the hot shard replaced by its two halves.
	type span struct {
		hi     uint64 // inclusive upper bound of the span's code range
		tree   *bdltree.Tree
		score  float64
		ewma   float64
		halved bool // one of the split halves
	}
	spans := make([]span, 0, S+1)
	for s := 0; s < S; s++ {
		bound := morton.MaxCode(e.dim)
		if s < S-1 {
			bound = part.bounds[s]
		}
		if s == hot {
			left := e.newTree(pts.Slice(0, cutIdx), ids[:cutIdx])
			right := e.newTree(pts.Slice(cutIdx, pts.Len()), ids[cutIdx:])
			halfE := ewmas[s] / 2
			spans = append(spans,
				span{hi: cutCode, tree: left, score: scores[s] / 2, ewma: halfE, halved: true},
				span{hi: bound, tree: right, score: scores[s] / 2, ewma: halfE, halved: true})
			continue
		}
		spans = append(spans, span{hi: bound, tree: snap.trees[s], score: scores[s], ewma: ewmas[s]})
	}

	// Coldest admissible adjacent pair, excluding the freshly split pair.
	best, bestScore := -1, math.Inf(1)
	for i := 0; i+1 < len(spans); i++ {
		if spans[i].halved && spans[i+1].halved {
			continue
		}
		c := spans[i].score + spans[i+1].score
		if writeTrig {
			// Don't re-concentrate the stream we are dividing; fusing big
			// cold shards is exactly the intended counter-move.
			if spans[i].ewma+spans[i+1].ewma > ewmas[hot]/2 {
				continue
			}
		} else if c >= scores[hot] {
			continue // merging would just mint the next hot shard
		}
		if c < bestScore {
			best, bestScore = i, c
		}
	}
	if best < 0 {
		return RebalanceNone
	}
	merged := span{
		hi:    spans[best+1].hi,
		tree:  bdltree.Merge(part.world, spans[best].tree, spans[best+1].tree),
		ewma:  spans[best].ewma + spans[best+1].ewma,
		score: bestScore,
	}
	spans = append(spans[:best], append([]span{merged}, spans[best+2:]...)...)

	newBounds := make([]uint64, S-1)
	newTrees := make([]*bdltree.Tree, S)
	for i, sp := range spans {
		if i < S-1 {
			newBounds[i] = sp.hi
		}
		newTrees[i] = sp.tree
	}
	if !e.swapPartition(newPartitionFromBounds(e.dim, part.world, newBounds), newTrees) {
		return RebalanceNone
	}
	for i, sp := range spans {
		e.shards[i].load.Store(math.Float64bits(sp.ewma))
	}
	return RebalanceSplitMerge
}

// writeMedianCut returns the median Morton code (under part's world) of
// shard s's recent-write sample, clamped so that both sides of the cut
// keep at least one live point; ok=false when the sample is too thin to
// trust. streamsDivide reports whether the sampled update requests mostly
// fall WHOLLY on one side of that cut — the precondition for a
// write-triggered split to actually parallelize the stream rather than
// turn each request into a multi-shard commit. live is the shard's sorted
// live code list (len >= 2, not all equal). Caller holds every shard lock,
// so the ring is stable.
func (e *Engine) writeMedianCut(s int, part *partition, lo, hi uint64, live []uint64) (cut uint64, ok, streamsDivide bool) {
	sh := e.shards[s]
	n := sh.recentCount()
	if n < 4*samplePerCommit {
		return 0, false, false
	}
	type row struct {
		code uint64
		req  int32
	}
	sample := make([]row, 0, n)
	for i := 0; i < n; i++ {
		c := morton.EncodeCols(sh.recent, recentRows, i, e.dim, part.world)
		if c >= lo && c <= hi {
			sample = append(sample, row{c, sh.recentReq[i]})
		}
	}
	if len(sample) < 2*samplePerCommit {
		return 0, false, false // mostly stale rows from before a migration
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i].code < sample[j].code })
	cut = sample[len(sample)/2].code
	// Clamp into the open interior of the live code span.
	if cut >= live[len(live)-1] {
		cut = live[len(live)-1] - 1
	}
	if cut < live[0] {
		cut = live[0]
	}
	// Straddle census: of the sampled requests with at least two surviving
	// rows (a single-row request cannot testify either way — ring wrap and
	// the range filter routinely thin old requests down to one row), how
	// many have rows on both sides of the cut?
	side := make(map[int32]uint8, 32)
	rows := make(map[int32]int, 32)
	for _, r := range sample {
		bit := uint8(1)
		if r.code > cut {
			bit = 2
		}
		side[r.req] |= bit
		rows[r.req]++
	}
	multi, straddle := 0, 0
	for req, m := range side {
		if rows[req] < 2 {
			continue
		}
		multi++
		if m == 3 {
			straddle++
		}
	}
	if multi == 0 {
		// Every surviving request is a single row: point-sized updates
		// cannot straddle any boundary, so the cut divides the stream.
		return cut, true, true
	}
	streamsDivide = straddle*3 <= multi
	return cut, true, streamsDivide
}

// repartitionLocked rebuilds the whole partition from the snapshot's live
// points under a widened world box: fresh quantile boundaries, all S trees
// rebuilt in Morton order. Resets the drift counter.
func (e *Engine) repartitionLocked(snap *Snapshot) bool {
	pts, ids := snap.Points()
	if pts.Len() == 0 {
		e.outOfWorld.Store(0)
		return false
	}
	world := geom.BoundingBoxAll(pts)
	for d := 0; d < e.dim; d++ {
		if ext := world.Max[d] - world.Min[d]; ext > 0 {
			world.Min[d] -= worldPad * ext
			world.Max[d] += worldPad * ext
		}
	}
	part, trees := e.shardedBuild(world, pts, ids)
	if !e.swapPartition(part, trees) {
		return false
	}
	e.outOfWorld.Store(0)
	// The drifted mass now spreads over fresh ranges; keep the total write
	// heat but spread it evenly, letting real commits re-concentrate it.
	tot := 0.0
	for _, sh := range e.shards {
		tot += sh.loadEWMA()
	}
	for _, sh := range e.shards {
		sh.load.Store(math.Float64bits(tot / float64(e.nshard)))
	}
	return true
}

// swapPartition publishes a migration: the new partition and its matching
// shard vector in one snapshot pointer swap (see publish). Caller holds
// every shard commit lock, so no commit's publish can interleave and the
// routing pointer update cannot race a router that has already validated
// under a held lock.
//
// A migration consumes an epoch without changing the live point set; on a
// durable engine publish logs it as a data-free note record to keep the
// WAL's epoch sequence gap-free. If that append fails (poisoned or closed
// log) the migration is abandoned — returns false with the partition
// untouched — keeping the in-memory epoch sequence aligned with the
// durable one.
func (e *Engine) swapPartition(part *partition, trees []*bdltree.Tree) bool {
	if _, _, err := e.publish(nil, part, trees); err != nil {
		return false
	}
	// Shard indices shift meaning across a migration; drop the recent-write
	// rings rather than misattribute their rows (they refill within a few
	// commits, and the EWMAs are remapped explicitly by the callers).
	for _, sh := range e.shards {
		sh.recentW = 0
	}
	return true
}
