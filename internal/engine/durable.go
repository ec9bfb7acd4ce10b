package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"pargeo/internal/bdltree"
	"pargeo/internal/geom"
	"pargeo/internal/morton"
	"pargeo/internal/parlay"
	"pargeo/internal/wal"
)

// ErrClosed is returned (via UpdateResult.Err) for updates submitted
// after Close on a durable engine.
var ErrClosed = errors.New("engine: closed")

// Durability configures the engine's write-ahead log and checkpointing.
// Pass it via Options.Durability and construct the engine with Open.
type Durability struct {
	// Dir holds the WAL segments and checkpoint files.
	Dir string
	// SyncEvery selects the durability mode. 0 or 1: every update is
	// acknowledged only after its WAL record is fsynced (concurrent
	// commits share fsyncs via group commit). K>1: updates are
	// acknowledged immediately and the log fsyncs every K records — a
	// crash can lose up to the last K-1 acknowledged batches, but always
	// a suffix (prefix durability to the most recent sync).
	SyncEvery int
	// CheckpointEvery triggers an automatic background checkpoint after
	// that many committed WAL records. 0 disables automatic checkpoints;
	// Engine.Checkpoint remains available.
	CheckpointEvery int
	// SegmentSize is the WAL segment rotation threshold in bytes
	// (0 = wal default).
	SegmentSize int
	// FS overrides the file system (tests inject wal.MemFS for
	// deterministic crash injection). nil = the real file system.
	FS wal.VFS
}

// Open constructs an engine, recovering durable state first when
// Options.Durability is set: it loads the newest valid checkpoint,
// replays WAL records past its epoch (discarding any torn tail), rebuilds
// the shard trees, and opens a fresh WAL segment for new commits. The
// recovered engine resumes at the recovered epoch with the recovered
// id-generator watermark, so ids never collide across restarts.
func Open(dim int, opts Options) (*Engine, error) {
	e := newEngine(dim, opts)
	if d := opts.Durability; d != nil && d.Dir != "" {
		if err := e.recoverDurable(*d); err != nil {
			return nil, err
		}
	}
	e.startRebalancer()
	return e, nil
}

// recoverDurable restores state from d.Dir and opens the WAL for
// appending. Called once, before the engine is visible to any other
// goroutine.
func (e *Engine) recoverDurable(d Durability) error {
	fs := d.FS
	if fs == nil {
		fs = wal.OSFS{}
	}
	if err := fs.MkdirAll(d.Dir); err != nil {
		return err
	}
	ckpt, err := wal.LoadLatestCheckpoint(fs, d.Dir)
	if err != nil {
		return err
	}
	var afterEpoch uint64
	basePts := geom.Points{Dim: e.dim}
	var baseIDs []int32
	var nextID int64
	if ckpt != nil {
		if ckpt.Dim != e.dim {
			return fmt.Errorf("engine: %s holds dim-%d data, engine is dim-%d", d.Dir, ckpt.Dim, e.dim)
		}
		afterEpoch = ckpt.Epoch
		basePts, baseIDs = ckpt.Pts, ckpt.IDs
		nextID = ckpt.NextID
	}
	recs, err := wal.ScanLog(fs, d.Dir, e.dim, afterEpoch)
	if err != nil {
		return err
	}
	pts, ids := replayRecords(e.dim, basePts, baseIDs, recs)
	finalEpoch := afterEpoch + uint64(len(recs))
	for _, id := range ids {
		if int64(id) >= nextID {
			nextID = int64(id) + 1
		}
	}
	e.nextID.Store(nextID)

	var snap *Snapshot
	var part *partition
	switch {
	case pts.Len() == 0:
		// Nothing live (possibly after epochs of churn): the engine is
		// structurally pre-founding again, just at a later epoch.
		snap = &Snapshot{trees: []*bdltree.Tree{e.newTree(geom.Points{}, nil)}, epoch: finalEpoch}
	case e.nshard == 1:
		t := e.newTree(pts, ids)
		snap = &Snapshot{trees: []*bdltree.Tree{t}, epoch: finalEpoch, size: t.Size()}
	case ckpt != nil && ckpt.HasPart && len(recs) == 0 && ckpt.Shards == e.nshard:
		// Exact restore: no replay and an unchanged shard count, so the
		// checkpoint's own partition can be reinstated and each shard
		// rebuilt from the rows it routes there.
		part = newPartitionFromBounds(e.dim, ckpt.World, ckpt.Bounds)
		bySh, idsBy, _ := part.splitByShard(pts, ids)
		trees := make([]*bdltree.Tree, e.nshard)
		parlay.For(e.nshard, 1, func(s int) {
			trees[s] = e.newTree(bySh[s], idsBy[s])
		})
		snap = &Snapshot{part: part, trees: trees, epoch: finalEpoch, size: pts.Len()}
	default:
		// Replay changed the live set (or the shard count changed):
		// refound the partition over the recovered points, under a world
		// at least as wide as the checkpoint's.
		world := geom.BoundingBoxAll(pts)
		if ckpt != nil && ckpt.HasPart {
			world.Union(ckpt.World)
		}
		var trees []*bdltree.Tree
		part, trees = e.shardedBuild(world, pts, ids)
		size := 0
		for _, t := range trees {
			size += t.Size()
		}
		snap = &Snapshot{part: part, trees: trees, epoch: finalEpoch, size: size}
	}
	snap.eng = e
	e.snap.Store(snap)
	// Retention restarts at the recovered epoch: the ring newEngine seeded
	// holds the discarded epoch-0 shell (not contiguous with finalEpoch),
	// and historical versions are not durable, so the window begins here.
	e.retainMu.Lock()
	e.retained = e.retained[:0]
	e.retainMu.Unlock()
	e.retain(snap)
	if part != nil {
		e.part.Store(part)
	}

	log, err := wal.OpenLog(fs, d.Dir, e.dim, wal.LogOptions{
		SegmentSize: d.SegmentSize,
		SyncEvery:   d.SyncEvery,
	}, finalEpoch+1)
	if err != nil {
		return err
	}
	e.log = log
	e.durFS, e.durDir, e.dur = fs, d.Dir, d
	return nil
}

// replayRecords applies commit records to a base live set and returns
// the final live points and ids. It reproduces the engine's group
// semantics exactly: a delete row tombstones EVERY live point whose
// coordinates match it bit-for-bit, all of a record's deletes apply
// before any of its inserts, and note records change nothing.
func replayRecords(dim int, basePts geom.Points, baseIDs []int32, recs []wal.Record) (geom.Points, []int32) {
	data := append([]float64(nil), basePts.Data...)
	ids := append([]int32(nil), baseIDs...)
	alive := make([]bool, len(ids))
	for i := range alive {
		alive[i] = true
	}
	key := func(row []float64) string {
		b := make([]byte, 0, dim*8)
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return string(b)
	}
	index := make(map[string][]int, len(ids))
	for i := range ids {
		k := key(data[i*dim : (i+1)*dim])
		index[k] = append(index[k], i)
	}
	for _, rec := range recs {
		if rec.Kind != wal.KindCommit {
			continue
		}
		for _, d := range rec.Dels {
			for r, n := 0, d.Len(); r < n; r++ {
				k := key(d.At(r))
				for _, i := range index[k] {
					alive[i] = false
				}
				delete(index, k)
			}
		}
		for r, n := 0, rec.Ins.Len(); r < n; r++ {
			i := len(ids)
			data = append(data, rec.Ins.At(r)...)
			ids = append(ids, rec.IDs[r])
			alive = append(alive, true)
			k := key(rec.Ins.At(r))
			index[k] = append(index[k], i)
		}
	}
	var outData []float64
	var outIDs []int32
	for i := range ids {
		if alive[i] {
			outData = append(outData, data[i*dim:(i+1)*dim]...)
			outIDs = append(outIDs, ids[i])
		}
	}
	return geom.Points{Data: outData, Dim: dim}, outIDs
}

// walBodyPool recycles commit-record body buffers: encoding runs on the
// hot write path (under publishMu), and a serving workload would
// otherwise allocate tens of KB of garbage per commit.
var walBodyPool = sync.Pool{New: func() any { return new(walScratch) }}

type walScratch struct {
	body []byte
	ins  []float64
	ids  []int32
	dels []geom.Points
}

// appendCommit encodes one commit group as a WAL commit-record body and
// appends it at epoch. The encoding is routing-independent — every
// delete batch in request order, then the combined insert batch —
// because the engine's final state after a group is the same however the
// group was fanned out across shards. The scratch buffers are recycled:
// Append has fully consumed the body by the time it returns.
func (e *Engine) appendCommit(epoch uint64, group []*updateReq) (uint64, error) {
	sc := walBodyPool.Get().(*walScratch)
	sc.dels, sc.ins, sc.ids = sc.dels[:0], sc.ins[:0], sc.ids[:0]
	for _, r := range group {
		if r.del.Len() > 0 {
			sc.dels = append(sc.dels, r.del)
		}
		sc.ins = append(sc.ins, r.ins.Data...)
		sc.ids = append(sc.ids, r.insIDs...)
	}
	sc.body = wal.AppendCommitBody(sc.body[:0], sc.dels, geom.Points{Data: sc.ins, Dim: e.dim}, sc.ids)
	lsn, err := e.log.Append(wal.KindCommit, epoch, sc.body)
	walBodyPool.Put(sc)
	return lsn, err
}

// waitDurable blocks until the record at lsn is durable (no-op for
// non-durable engines and relaxed SyncEvery>1 mode).
func (e *Engine) waitDurable(lsn uint64) error {
	if e.log == nil {
		return nil
	}
	return e.log.WaitDurable(lsn)
}

// ackNoop produces the epoch and error for a request that changed no state
// (an empty update, or a delete matching nothing) — whether its commit
// group published on behalf of other members or not. The reported epoch
// must honor the same acked⇒durable-prefix contract as a real commit's:
// neither the naked published epoch nor the group's own will do, because
// in relaxed SyncEvery>1 mode both can be past the last fsync, and a
// request with no record in an epoch has no business vouching for it.
// Under publishMu the published epoch and the log tail correspond exactly
// (every append happens under that lock); waiting on the tail LSN makes
// the published epoch safe to report in strict mode, and in relaxed mode —
// where WaitDurable returns immediately by design — the ack falls back to
// the last fsync-covered epoch, a statement that survives any crash.
func (e *Engine) ackNoop() (uint64, error) {
	if e.log == nil {
		return e.snap.Load().epoch, nil
	}
	e.publishMu.Lock()
	epoch := e.snap.Load().epoch
	tail := e.log.TailLSN()
	e.publishMu.Unlock()
	err := e.log.WaitDurable(tail)
	if durable := e.log.DurableEpoch(); durable < epoch {
		epoch = durable
	}
	if err == nil {
		// WaitDurable returns nil without looking at the log in relaxed
		// mode; a poisoned log must still reject the ack.
		err = e.log.Err()
	}
	return epoch, err
}

// noteWALCommit counts a committed WAL record toward the automatic
// checkpoint trigger. Checkpoints run in the background so the write
// path never stalls behind one; a background checkpoint's error is
// dropped — the WAL retains everything, so only log length suffers.
func (e *Engine) noteWALCommit() {
	if e.log == nil || e.dur.CheckpointEvery <= 0 {
		return
	}
	if e.sinceCkpt.Add(1) < int64(e.dur.CheckpointEvery) {
		return
	}
	if !e.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	e.sinceCkpt.Store(0)
	e.ckptWG.Add(1)
	go func() {
		defer e.ckptWG.Done()
		defer e.ckptBusy.Store(false)
		e.Checkpoint()
	}()
}

// Checkpoint durably serializes the current snapshot — every shard tree's
// live rows streamed straight out of its levels' arrays, so a checkpoint
// allocates one write buffer whatever the engine holds — records its epoch,
// and truncates WAL segments (and older checkpoints) the new checkpoint
// supersedes. The snapshot is immutable, so the checkpoint is a consistent
// cut at its epoch no matter how many commits land while it is written.
// Returns an error on a non-durable engine.
func (e *Engine) Checkpoint() error {
	if e.log == nil {
		return errors.New("engine: not durable (no Options.Durability)")
	}
	// The shared close lock serializes checkpoints against Close exactly
	// like updates: a checkpoint in flight when Close begins finishes
	// (Close's exclusive lock waits it out) before the log closes, and one
	// submitted after Close began is rejected — it would otherwise write
	// checkpoint files and prune WAL segments under a directory that a
	// successor process may already be recovering from.
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	snap := e.snap.Load()
	c := &wal.Checkpoint{
		Epoch:  snap.epoch,
		NextID: e.nextID.Load(),
		Dim:    e.dim,
		Shards: e.nshard,
	}
	if part := snap.part; part != nil {
		// The partition is stored only if every live point encodes inside
		// its shard's code range (a broken invariant should be impossible);
		// without it, restore refounds the partition over the points.
		inRange := 0
		for s, tr := range snap.trees {
			lo, hi := part.codeRange(s)
			tr.EachLive(func(coords []float64, ids []int32) {
				for r := range ids {
					if code := morton.Encode(coords[r*e.dim:(r+1)*e.dim], part.world); lo <= code && code <= hi {
						inRange++
					}
				}
			})
		}
		c.HasPart, c.World, c.Bounds = inRange == snap.size, part.world, part.bounds
	}
	err := wal.WriteCheckpoint(e.durFS, e.durDir, c, snap.size, func(yield func(coords []float64, ids []int32)) {
		for _, tr := range snap.trees {
			tr.EachLive(yield)
		}
	})
	if err != nil {
		return err
	}
	if err := e.log.PrunePast(c.Epoch); err != nil {
		return err
	}
	wal.PruneCheckpoints(e.durFS, e.durDir, c.Epoch)
	return nil
}
