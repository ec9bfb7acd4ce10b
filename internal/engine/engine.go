package engine

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pargeo/internal/bdltree"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/morton"
	"pargeo/internal/parlay"
	"pargeo/internal/wal"
)

// AutoShards, passed as Options.Shards, selects one shard per GOMAXPROCS
// worker at engine creation.
const AutoShards = -1

// Options configure an Engine.
type Options struct {
	// BufferSize is the BDL buffer-tree capacity X (0 = bdltree default).
	// Every tree version is an object-median BDL-tree, and X is the only
	// engine value a tree sees.
	BufferSize int
	// Shards is the number of Morton-range shards S: independent BDL-trees
	// whose disjoint updates commit in parallel. 0 or 1 runs unsharded
	// (one tree, one committer); AutoShards picks GOMAXPROCS. Boundaries
	// are sampled from the first committed insertion; with Rebalance set
	// they then track the live load online.
	Shards int
	// Rebalance starts the background rebalancer on a sharded engine: a
	// goroutine that watches per-shard load (live size + committed-batch
	// EWMA + a recent-write sample), splits a hot shard's Morton range at
	// the weighted median code of its recent writes (merging the two
	// coldest adjacent shards to keep S constant), and — when enough
	// inserted rows land outside the partition's world box — rebuilds the
	// whole partition under a widened world so drifting workloads stop
	// aliasing into boundary cells. A pass runs every 25 ms; call Close
	// to stop the loop. Engine.Rebalance runs one pass synchronously
	// whether or not the background loop is enabled.
	Rebalance bool
	// RetainEpochs enables MVCC retention: the engine keeps the most
	// recent RetainEpochs published snapshots (the live one included)
	// resolvable through AsOf and PinEpoch, forming a sliding time-travel
	// window over the commit history. Persistent BDL-tree versions share
	// untouched structure, so a retained epoch costs only the trees its
	// commit rebuilt; Stats().RetainedBytes reports the marginal memory.
	// 0 or 1 disables the window (only the live epoch resolves). Pin and
	// Snapshot.Release work regardless of this setting — a pinned epoch
	// stays resolvable however small the window is. Retention is
	// in-memory only: a reopened engine starts with just the recovered
	// epoch retained.
	RetainEpochs int
	// Durability, when non-nil, makes the engine durable: committed
	// batches are written ahead to a segmented, CRC-framed log and
	// checkpoints capture the full state, so Open recovers everything
	// acknowledged before a crash. See the Durability type and the
	// package documentation's durability section. Construct durable
	// engines with Open (New panics on a recovery error).
	Durability *Durability
}

// UpdateResult reports a committed update.
type UpdateResult struct {
	// IDs are the global ids assigned to this request's inserted points,
	// in batch order. Ids are engine-global: unique across all shards.
	IDs []int32
	// Deleted is the number of live points removed by this request's
	// deletion batch. Within a commit group, deletion batches apply in
	// arrival order (all before any insertion), so a point matched by two
	// coalesced requests is counted against the earlier one.
	Deleted int
	// Epoch is the epoch of the snapshot that made this update visible.
	Epoch uint64
	// Err is non-nil when the update was not durably committed: ErrClosed
	// for updates submitted after Close on a durable engine, or the WAL's
	// sticky write/sync error. When the failed step was the WAL append,
	// the update was not applied at all; when it was the post-publish
	// fsync wait, the update is visible in memory but its durability is
	// unknown (the engine is fail-stopped either way). Always nil on a
	// non-durable engine.
	Err error
}

type updateReq struct {
	ins    geom.Points
	insIDs []int32 // global ids reserved for ins rows, in batch order
	del    geom.Points
	part   *partition // partition the request was routed under (nil pre-founding)
	res    UpdateResult
	done   chan struct{}
	lead   chan struct{} // baton: receiver becomes the next committer
}

// combiner is one flat-combining queue: the first arrival becomes the
// leader, later arrivals park, and a leader serves exactly one drained
// group before handing the baton on.
type combiner struct {
	mu      sync.Mutex
	pending []*updateReq
	active  bool
}

// shard is one Morton-range shard's write machinery. comb coalesces the
// shard's single-shard updates; commitMu serializes version preparation
// for this shard between its own committer, multi-shard committers, and
// the rebalancer (which takes every shard's lock). load is the shard's
// committed-batch EWMA — recent update rows per commit — read atomically
// by the rebalancer's hot-shard scoring and rewritten by it when a
// migration remaps shard ranges. recent is a ring of recently committed
// row coordinates (written under commitMu, read by the rebalancer under
// every commitMu): the write-load sample whose median Morton code places
// a split boundary where the writes are, not where the points are. The
// ring stores float32 in dimension-major order (coordinate c of slot i at
// recent[c*recentRows+i], matching the kd-tree leaf slab layout): Morton
// quantization uses at most 21 bits per axis, far below float32
// precision, and the rebalancer only ever reads the ring column-wise
// through morton.EncodeCols.
type shard struct {
	comb      combiner
	commitMu  sync.Mutex
	load      atomic.Uint64 // float64 bits of the committed-rows EWMA
	recent    []float32     // dim-major ring of sampled committed rows
	recentReq []int32       // per-row tag: which update request the row came from
	reqSeq    int32         // request tag generator
	recentW   int           // ring write cursor, in rows
}

// loadAlpha is the committed-batch EWMA smoothing factor: each commit of r
// rows moves the shard's load a quarter of the way toward r.
const loadAlpha = 0.25

// Recent-write reservoir geometry: ring capacity and rows sampled per
// update request.
const (
	recentRows      = 256
	samplePerCommit = 8
)

// sampleRows records a spread sample of one update request's committed
// coordinates in the shard's recent-write ring, tagging every sampled row
// with the request it came from — the tags let the rebalancer judge
// whether a candidate split boundary would divide the write STREAM
// (requests fall wholly on one side: good, parallel streams) or merely cut
// through every request (bad: each update would turn multi-shard). Caller
// holds the shard's commit lock.
func (sh *shard) sampleRows(batch geom.Points, dim int) {
	n := batch.Len()
	if n == 0 {
		return
	}
	if sh.recent == nil {
		sh.recent = make([]float32, recentRows*dim)
		sh.recentReq = make([]int32, recentRows)
	}
	tag := sh.reqSeq
	sh.reqSeq++
	step := n / samplePerCommit
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i += step {
		slot := sh.recentW % recentRows
		p := batch.At(i)
		for c := 0; c < dim; c++ {
			sh.recent[c*recentRows+slot] = float32(p[c])
		}
		sh.recentReq[slot] = tag
		sh.recentW++
	}
}

// recentCount returns how many sampled rows the ring currently holds.
func (sh *shard) recentCount() int {
	if sh.recentW < recentRows {
		return sh.recentW
	}
	return recentRows
}

// sampleGroup records a committed group's write sample: every request's
// insert batch, falling back to the first non-empty delete batch when the
// group inserted nothing. ins[i] and del[i] are request i's batches as
// routed to this shard. Caller holds the shard's commit lock.
func (sh *shard) sampleGroup(dim int, ins, del []geom.Points) {
	sampled := false
	for _, b := range ins {
		if b.Len() > 0 {
			sh.sampleRows(b, dim)
			sampled = true
		}
	}
	if sampled {
		return
	}
	for _, b := range del {
		if b.Len() > 0 {
			sh.sampleRows(b, dim)
			return
		}
	}
}

// noteCommit folds a committed group's row count into the shard's EWMA.
// CAS loop: commits update under the shard's commit lock, but the
// rebalancer decays loads without holding it.
func (sh *shard) noteCommit(rows int) {
	for {
		old := sh.load.Load()
		next := math.Float64bits(math.Float64frombits(old)*(1-loadAlpha) + float64(rows)*loadAlpha)
		if sh.load.CompareAndSwap(old, next) {
			return
		}
	}
}

// scaleLoad multiplies the shard's EWMA by f (rebalancer decay / remap).
func (sh *shard) scaleLoad(f float64) {
	for {
		old := sh.load.Load()
		next := math.Float64bits(math.Float64frombits(old) * f)
		if sh.load.CompareAndSwap(old, next) {
			return
		}
	}
}

// loadEWMA returns the shard's committed-batch EWMA.
func (sh *shard) loadEWMA() float64 { return math.Float64frombits(sh.load.Load()) }

// Engine is a concurrent spatial query service over Morton-sharded
// BDL-trees. See the package documentation for the snapshot/epoch protocol
// and the two-phase shard publish. All methods are safe for concurrent use
// by any number of goroutines.
type Engine struct {
	dim    int
	opts   Options
	nshard int

	snap   atomic.Pointer[Snapshot]
	part   atomic.Pointer[partition] // set by the founding commit, replaced by migrations
	nextID atomic.Int64              // engine-global id block reservation

	// Rebalancer bookkeeping: inserted rows committed outside the current
	// partition's world box since the last repartition (the drift signal),
	// completed migrations, backoff state for triggered-but-unactionable
	// passes, and the background loop's stop channel.
	outOfWorld atomic.Int64
	rebalanced atomic.Uint64
	noopStreak atomic.Int32
	skipPasses atomic.Int32
	stop       chan struct{}
	rebalDone  chan struct{}
	closeOnce  sync.Once

	// Durability plumbing (all zero on a non-durable engine): the WAL,
	// its backing VFS and directory, shutdown coordination (closed gate +
	// in-flight update drain), and the automatic checkpoint trigger.
	log       *wal.Log
	durFS     wal.VFS
	durDir    string
	dur       Durability
	closed    atomic.Bool
	closeMu   sync.RWMutex
	ckptMu    sync.Mutex
	ckptWG    sync.WaitGroup
	ckptBusy  atomic.Bool
	sinceCkpt atomic.Int64

	// publishMu guards the snapshot swap (phase two of every commit): an
	// O(S) vector copy plus one atomic store, so the serialized section of
	// a commit is tiny regardless of batch size.
	publishMu sync.Mutex

	// MVCC retention (see retain.go): the ring of the last RetainEpochs
	// published snapshots and the pin table for epochs held past the
	// ring's watermark. retainMu orders ring trims against AsOf/Pin
	// lookups; publish sites take it briefly after the snapshot swap
	// (lock order: publishMu, then retainMu — never the reverse).
	retainMu sync.Mutex
	retained []*Snapshot
	pins     map[uint64]*pinEntry

	shards []*shard
	global combiner // multi-shard and pre-partition updates

	// knnPools holds one KNNBuffer pool per requested k, so k-NN reads
	// reuse buffers across queries instead of allocating one per query.
	knnPools sync.Map // int (k) -> *kdtree.BufferPool

	// Serving counters, exported through Stats. Updates/Commits is the
	// write combiner's group size.
	statUpdates atomic.Uint64 // update requests acknowledged without error
	statCommits atomic.Uint64 // snapshot publishes (groups that changed state)
	statQueries atomic.Uint64 // k-NN query rows, range searches and range counts answered
}

// knnPool returns the engine's shared buffer pool for k-neighbor queries.
func (e *Engine) knnPool(k int) *kdtree.BufferPool {
	if v, ok := e.knnPools.Load(k); ok {
		return v.(*kdtree.BufferPool)
	}
	v, _ := e.knnPools.LoadOrStore(k, kdtree.NewBufferPool(k))
	return v.(*kdtree.BufferPool)
}

// New returns an engine serving dim-dimensional points, publishing an empty
// epoch-0 snapshot. With Options.Durability set it recovers durable state
// exactly like Open, but panics on a recovery error; use Open to handle
// recovery failures.
func New(dim int, opts Options) *Engine {
	e, err := Open(dim, opts)
	if err != nil {
		panic("engine: " + err.Error())
	}
	return e
}

// newEngine builds the in-memory engine shell: options normalized, shards
// allocated, empty epoch-0 snapshot published, no background rebalancer
// yet (Open starts it after any recovery).
func newEngine(dim int, opts Options) *Engine {
	ns := opts.Shards
	if ns == AutoShards {
		ns = runtime.GOMAXPROCS(0)
	}
	if ns < 1 {
		ns = 1
	}
	e := &Engine{dim: dim, opts: opts, nshard: ns}
	e.shards = make([]*shard, ns)
	for i := range e.shards {
		e.shards[i] = &shard{}
	}
	seed := &Snapshot{eng: e, trees: []*bdltree.Tree{e.newTree(geom.Points{}, nil)}}
	e.snap.Store(seed)
	e.retain(seed)
	return e
}

// startRebalancer starts the background rebalance loop when configured.
func (e *Engine) startRebalancer() {
	if e.opts.Rebalance && e.nshard > 1 {
		e.stop = make(chan struct{})
		e.rebalDone = make(chan struct{})
		go func() {
			defer close(e.rebalDone)
			e.rebalanceLoop()
		}()
	}
}

// Close shuts the engine down. On a durable engine it rejects new
// updates (UpdateResult.Err = ErrClosed), waits for every in-flight
// update to commit and acknowledge, stops the rebalancer and any
// background checkpoint, and closes the WAL with a final fsync — so a
// clean shutdown leaves no torn tail and loses nothing acknowledged,
// even in relaxed SyncEvery>1 mode. Queries keep serving from the last
// snapshot. On a non-durable engine Close only stops the background
// rebalancer and the engine keeps accepting updates (the pre-durability
// contract). Safe to call multiple times; later calls return nil.
func (e *Engine) Close() error {
	var err error
	e.closeOnce.Do(func() {
		if e.log != nil {
			e.closed.Store(true)
			// Taking the close lock exclusively waits out every in-flight
			// update (each holds it shared across its whole commit).
			e.closeMu.Lock()
			e.closeMu.Unlock() //nolint:staticcheck // empty critical section is the drain
		}
		if e.stop != nil {
			close(e.stop)
			<-e.rebalDone
		}
		if e.log != nil {
			e.ckptWG.Wait()
			err = e.log.Close()
		}
	})
	return err
}

// newTree builds one shard tree version holding pts, row i under global
// id ids[i] (empty pts: an empty tree). It is the one place engine options
// become bdltree options.
func (e *Engine) newTree(pts geom.Points, ids []int32) *bdltree.Tree {
	return bdltree.NewFromSorted(e.dim, bdltree.Options{BufferSize: e.opts.BufferSize}, pts, ids)
}

// Snapshot returns the latest committed version. The handle stays valid —
// and keeps answering from its version — for as long as the caller holds
// it.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Size returns the live point count of the latest committed snapshot.
func (e *Engine) Size() int { return e.Snapshot().Size() }

// Epoch returns the latest committed epoch.
func (e *Engine) Epoch() uint64 { return e.Snapshot().Epoch() }

// Shards returns the engine's configured shard count.
func (e *Engine) Shards() int { return e.nshard }

// --- write path ---------------------------------------------------------

// Update atomically applies a deletion batch and an insertion batch
// (deletions first) and blocks until the snapshot containing them is
// published. Either batch may be empty. Concurrent updates coalesce per
// routing target: updates confined to one shard combine with that shard's
// stream and commit independently of — and in parallel with — other
// shards' streams; updates spanning shards combine on a global stream and
// publish all their shard versions in one swap, so readers see a
// multi-shard batch all-or-nothing.
func (e *Engine) Update(insert, del geom.Points) UpdateResult {
	if insert.Len() > 0 && insert.Dim != e.dim {
		panic("engine: insert batch dimension mismatch")
	}
	if del.Len() > 0 && del.Dim != e.dim {
		panic("engine: delete batch dimension mismatch")
	}
	if e.log != nil {
		// The shared close lock is taken BEFORE the closed check and held
		// for the whole commit: Close sets closed and then takes the lock
		// exclusively, so an update that passed the check finishes (and
		// reaches the WAL) before the log closes, and one that didn't is
		// rejected before touching anything.
		e.closeMu.RLock()
		defer e.closeMu.RUnlock()
		if e.closed.Load() {
			return UpdateResult{Err: ErrClosed}
		}
	}
	req := e.newUpdateReq(insert, del)
	stream := globalStream // multi-shard updates, and everything before the partition exists
	if req.part != nil {
		if s, single := singleShard(req.part, insert, del); single {
			stream = s
		}
	}
	e.submitUpdate(stream, req)
	if req.res.Err == nil {
		e.statUpdates.Add(1)
	}
	return req.res
}

// newUpdateReq builds one update's commit request: it reserves the insert
// batch's block of global ids and records the partition the request is
// about to be routed under (nil before the founding commit).
func (e *Engine) newUpdateReq(insert, del geom.Points) *updateReq {
	req := &updateReq{ins: insert, del: del, part: e.part.Load(), done: make(chan struct{}), lead: make(chan struct{})}
	if n := insert.Len(); n > 0 {
		base := e.nextID.Add(int64(n)) - int64(n)
		if base+int64(n) > math.MaxInt32 {
			// The id space is int32 end to end (bdltree global ids); a
			// wrapped id would collide with live ids across shards, so
			// exhausting ~2.1e9 cumulative insertions fails loudly.
			panic("engine: global id space exhausted")
		}
		req.insIDs = make([]int32, n)
		for i := range req.insIDs {
			req.insIDs[i] = int32(base) + int32(i)
		}
	}
	return req
}

// Insert commits a batch of new points and returns their assigned ids.
func (e *Engine) Insert(batch geom.Points) UpdateResult {
	return e.Update(batch, geom.Points{Dim: e.dim})
}

// Delete commits the removal of every live point whose coordinates match a
// batch point.
func (e *Engine) Delete(batch geom.Points) UpdateResult {
	return e.Update(geom.Points{Dim: e.dim}, batch)
}

// singleShard reports whether every row of both batches routes to one
// shard, and which. An empty update trivially routes to shard 0.
func singleShard(p *partition, ins, del geom.Points) (int, bool) {
	s := -1
	for _, batch := range []geom.Points{ins, del} {
		for i, n := 0, batch.Len(); i < n; i++ {
			sh := p.shardOf(batch.At(i))
			if s == -1 {
				s = sh
			} else if sh != s {
				return -1, false
			}
		}
	}
	if s == -1 {
		s = 0
	}
	return s, true
}

// globalStream names the engine-wide commit stream (Engine.global) where a
// shard index names a shard's own.
const globalStream = -1

// submitUpdate runs the flat-combining protocol on one commit stream — a
// shard's, or the global one: enqueue req, then either wait to be answered
// or — as the leader — drain one group, commit it, and pass the baton to a
// still-pending waiter. One group per leader bounds every caller's latency
// to one commit beyond its own, however sustained the write load.
func (e *Engine) submitUpdate(stream int, req *updateReq) {
	c := &e.global
	if stream != globalStream {
		c = &e.shards[stream].comb
	}
	c.mu.Lock()
	c.pending = append(c.pending, req)
	if c.active {
		c.mu.Unlock()
		select {
		case <-req.done:
			return
		case <-req.lead:
		}
	} else {
		c.active = true
		c.mu.Unlock()
	}
	c.mu.Lock()
	group := c.pending
	c.pending = nil
	c.mu.Unlock()
	e.commit(stream, group)
	c.mu.Lock()
	if len(c.pending) == 0 {
		c.active = false
	} else {
		close(c.pending[0].lead)
	}
	c.mu.Unlock()
}

// noteDrift counts a group's inserted rows that fall outside part's world
// box — the rebalancer's repartition signal. Called with part pinned by a
// held shard commit lock, so the count can never race a concurrent
// repartition's counter reset (which runs under every shard lock): rows
// counted here are genuinely out of the CURRENT world.
func (e *Engine) noteDrift(part *partition, group []*updateReq) {
	if part == nil {
		return
	}
	out := 0
	for _, r := range group {
		for i, n := 0, r.ins.Len(); i < n; i++ {
			if !part.world.Contains(r.ins.At(i)) {
				out++
			}
		}
	}
	if out > 0 {
		e.outOfWorld.Add(int64(out))
	}
}

// shardWork is one affected shard's share of a commit group, request-major:
// ins[i], ids[i] and del[i] are the rows of group member i that route to
// the shard (empty for a member that does not touch it).
type shardWork struct {
	shard   int
	ins     []geom.Points
	ids     [][]int32
	del     []geom.Points
	deleted []int         // per member: live points its deletions removed here
	rows    int           // update rows routed here, for the shard's load EWMA
	next    *bdltree.Tree // prepared version; nil leaves the shard unchanged
}

// prepare derives the shard's next tree version from old, copy-on-write, in
// one bdltree.PersistentUpdate: every member's deletions in arrival order,
// so each result reports its own removal count, then all insertions as one
// batch, rebuilding levels once. next stays nil when the live set did not
// change — a deletion that matched nothing (e.g. against a still-empty
// engine) publishes no no-op clone.
func (w *shardWork) prepare(old *bdltree.Tree, dim int) {
	var insData []float64
	var insIDs []int32
	for i, del := range w.del {
		insData = append(insData, w.ins[i].Data...)
		insIDs = append(insIDs, w.ids[i]...)
		w.rows += w.ins[i].Len() + del.Len()
	}
	tree, deleted := old.PersistentUpdate(w.del, geom.Points{Data: insData, Dim: dim}, insIDs)
	w.deleted = deleted
	if len(insIDs) > 0 || tree.Size() != old.Size() {
		w.next = tree
	}
}

// route decides which shards a commit group touches under part and returns
// each one's share of the group, ascending by shard. A group drained from
// shard s's stream whose members all routed under part is the set {s} and
// needs no re-splitting; so is any group while there is no partition (one
// tree, shard 0). The exception is founding: the first insertions of a
// sharded engine define the partition, so they touch every shard and are
// not split (the returned shares are empty — the founding commit pools the
// group instead). Everything else — global-stream groups, and shard-stream
// groups holding a member that routed under a partition a migration has
// since replaced — is re-split row by row under part.
func (e *Engine) route(part *partition, group []*updateReq, stream int) (work []*shardWork, founding bool) {
	newWork := func(s int) *shardWork {
		n := len(group)
		return &shardWork{shard: s, ins: make([]geom.Points, n), ids: make([][]int32, n), del: make([]geom.Points, n)}
	}
	single := stream != globalStream
	if part == nil {
		stream, single = 0, true
		for _, r := range group {
			founding = founding || (e.nshard > 1 && r.ins.Len() > 0)
		}
	}
	for _, r := range group {
		single = single && r.part == part
	}
	switch {
	case founding:
		for s := range e.shards {
			work = append(work, &shardWork{shard: s})
		}
	case single:
		w := newWork(stream)
		for i, r := range group {
			w.ins[i], w.ids[i], w.del[i] = r.ins, r.insIDs, r.del
		}
		work = append(work, w)
	default:
		byShard := make([]*shardWork, part.shards())
		at := func(s int) *shardWork {
			if byShard[s] == nil {
				byShard[s] = newWork(s)
			}
			return byShard[s]
		}
		for i, r := range group {
			insBy, idsBy, aff := part.splitByShard(r.ins, r.insIDs)
			for _, s := range aff {
				w := at(s)
				w.ins[i], w.ids[i] = insBy[s], idsBy[s]
			}
			delBy, _, aff := part.splitByShard(r.del, nil)
			for _, s := range aff {
				at(s).del[i] = delBy[s]
			}
		}
		for _, w := range byShard {
			if w != nil {
				work = append(work, w)
			}
		}
	}
	return work, founding
}

// commit is the one commit path: every drained group, from a shard's
// stream or the global one, whatever it touches, goes through the same
// lock–prepare–publish–ack sequence.
//
//	lock:    route the group under the current partition and take the
//	  affected shards' commit locks in ascending order, so committers
//	  cannot deadlock against each other or against the rebalancer (which
//	  takes every lock, also ascending). The routing is only valid while
//	  its partition is current, and a migration needs every shard lock to
//	  swap partitions: if the pointer still matches under a held lock no
//	  swap can complete before release; a mismatch means a migration won
//	  the race, and the group is re-routed under the new partition.
//	prepare: derive every affected shard's next tree version copy-on-write
//	  (see shardWork.prepare), in parallel through the scheduler when there
//	  are several. Shards outside the set keep committing concurrently.
//	  The founding commit instead pools the group's insertions and bulk-
//	  builds partition and all shard trees from them (shardedBuild); its
//	  deletions, applied first, meet an empty tree and remove nothing.
//	publish: one snapshot swap makes every prepared version visible
//	  atomically — a reader observes none or all of a multi-shard batch.
//	  Skipped when nothing changed.
//	ack:     per request, outside the shard locks (see finish).
func (e *Engine) commit(stream int, group []*updateReq) {
	var part *partition
	var work []*shardWork
	var founding bool
	unlock := func() {
		for i := len(work) - 1; i >= 0; i-- {
			e.shards[work[i].shard].commitMu.Unlock()
		}
	}
	for {
		part = e.part.Load()
		work, founding = e.route(part, group, stream)
		for _, w := range work {
			e.shards[w.shard].commitMu.Lock()
		}
		if e.part.Load() == part {
			break
		}
		unlock()
	}
	e.noteDrift(part, group)

	// trees is the next shard vector; publish fills nil slots from the
	// current one.
	old := e.snap.Load()
	var newPart *partition
	trees := make([]*bdltree.Tree, len(old.trees))
	changed := founding
	switch {
	case founding:
		var data []float64
		var ids []int32
		for _, r := range group {
			data = append(data, r.ins.Data...)
			ids = append(ids, r.insIDs...)
		}
		pool := geom.Points{Data: data, Dim: e.dim}
		newPart, trees = e.shardedBuild(geom.BoundingBoxAll(pool), pool, ids)
	case len(work) == 1:
		work[0].prepare(old.trees[work[0].shard], e.dim)
	default:
		thunks := make([]func(), len(work))
		for t, w := range work {
			thunks[t] = func() { w.prepare(old.trees[w.shard], e.dim) }
		}
		parlay.Submit(thunks).Wait()
	}
	deleted := make([]int, len(group))
	for _, w := range work {
		if w.next != nil {
			trees[w.shard], changed = w.next, true
		}
		for i, d := range w.deleted {
			deleted[i] += d
		}
	}

	var epoch, lsn uint64
	var err error
	if changed {
		if epoch, lsn, err = e.publish(group, newPart, trees); err == nil {
			for _, w := range work {
				if w.next != nil {
					sh := e.shards[w.shard]
					sh.noteCommit(w.rows)
					sh.sampleGroup(e.dim, w.ins, w.del)
				}
			}
		}
	}
	unlock()
	// Acks wait for durability outside the shard locks: other shards'
	// committers append and join the same group-commit fsync concurrently.
	e.finish(group, deleted, epoch, lsn, err)
}

// finish is the only place an update is acknowledged: it decides each
// request's result and releases its waiter. The rule is per request, not
// per group. A request that inserted nothing and deleted nothing changed
// no state, so it is acked through ackNoop and never reports an epoch
// above the durable prefix — whether or not the group it rode in published
// (in relaxed SyncEvery>1 mode the group's own epoch is not fsynced yet,
// and only requests whose records are IN that epoch may report it). Every
// other request reports the group's epoch once its record is durable; a
// failed wait still reports ids and epoch — the batch is visible in
// memory, its durability unknown. pubErr is a failed WAL append: nothing
// was published or applied, and the whole group is rejected with it.
func (e *Engine) finish(group []*updateReq, deleted []int, epoch, lsn uint64, pubErr error) {
	durable := sync.OnceValue(func() error { return e.waitDurable(lsn) })
	noop := sync.OnceValues(func() (uint64, error) { return e.ackNoop() })
	for i, r := range group {
		switch {
		case pubErr != nil:
			r.res = UpdateResult{Err: pubErr}
		case len(r.insIDs) == 0 && deleted[i] == 0:
			r.res.Epoch, r.res.Err = noop()
		default:
			r.res = UpdateResult{IDs: r.insIDs, Deleted: deleted[i], Epoch: epoch, Err: durable()}
		}
		close(r.done)
	}
}

// shardedBuild is the shared bulk-construction step of the founding commit
// and of a full repartition: place S-1 boundaries at sampled quantiles of
// the pool's Morton codes under world, sort the pool into Morton order, cut
// it at the boundaries, and build every shard tree in parallel.
func (e *Engine) shardedBuild(world geom.Box, pool geom.Points, ids []int32) (*partition, []*bdltree.Tree) {
	codes := make([]uint64, pool.Len())
	parlay.For(pool.Len(), 512, func(i int) {
		codes[i] = morton.Encode(pool.At(i), world)
	})
	part := newPartition(e.dim, e.nshard, world, codes)

	idx := make([]int32, len(codes))
	for i := range idx {
		idx[i] = int32(i)
	}
	sortedCodes := append([]uint64(nil), codes...)
	parlay.SortPairs(sortedCodes, idx)
	sortedPts := pool.Gather(idx)
	sortedIDs := make([]int32, len(idx))
	for i, j := range idx {
		sortedIDs[i] = ids[j]
	}
	cut := make([]int, e.nshard+1)
	for s := 1; s < e.nshard; s++ {
		b := part.bounds[s-1]
		cut[s] = sort.Search(len(sortedCodes), func(i int) bool { return sortedCodes[i] > b })
	}
	cut[e.nshard] = len(sortedCodes)
	trees := make([]*bdltree.Tree, e.nshard)
	parlay.For(e.nshard, 1, func(s int) {
		trees[s] = e.newTree(sortedPts.Slice(cut[s], cut[s+1]), sortedIDs[cut[s]:cut[s+1]])
	})
	return part, trees
}

// publish is the only place a snapshot is installed: it takes publishMu,
// appends the epoch's WAL record, swaps the snapshot pointer (one atomic
// store), feeds the retention ring, and — when given one — stores the new
// routing partition. trees is the next shard vector with nil marking slots
// kept from the current snapshot; callers prepared the non-nil slots
// beforehand and hold those shards' commit locks, so concurrent publishes
// never clobber each other's slots. A new partition (the founding commit,
// a migration) comes with every slot set and every commit lock held; its
// pointer is stored after, and under the same lock as, the snapshot built
// under it, so a writer that routes per shard always finds the matching
// shard vector. group is the commit being logged; nil publishes a
// migration — an epoch that changes no live point, logged as a data-free
// note record and not counted as a commit.
//
// The WAL append comes first, under the same lock — write-ahead: if it
// fails, nothing is published (the error is returned and the in-memory
// state is untouched), and the durable epoch sequence always matches the
// published one. The returned lsn (0 on a non-durable engine) feeds
// waitDurable AFTER the caller releases its shard locks, so fsync latency
// is paid outside every lock and concurrent commits share flushes.
func (e *Engine) publish(group []*updateReq, part *partition, trees []*bdltree.Tree) (epoch, lsn uint64, err error) {
	e.publishMu.Lock()
	cur := e.snap.Load()
	epoch = cur.epoch + 1
	if e.log != nil {
		if group == nil {
			lsn, err = e.log.Append(wal.KindNote, epoch, nil)
		} else {
			lsn, err = e.appendCommit(epoch, group)
		}
		if err != nil {
			e.publishMu.Unlock()
			return 0, 0, err
		}
	}
	size := 0
	for s, t := range trees {
		if t == nil {
			trees[s] = cur.trees[s]
		}
		size += trees[s].Size()
	}
	next := &Snapshot{eng: e, part: cur.part, trees: trees, epoch: epoch, size: size}
	if part != nil {
		next.part = part
	}
	e.snap.Store(next)
	e.retain(next)
	if part != nil {
		e.part.Store(part)
	}
	e.publishMu.Unlock()
	if group != nil {
		e.statCommits.Add(1)
		e.noteWALCommit()
	}
	return epoch, lsn, nil
}

// --- read path ----------------------------------------------------------
//
// Reads run on the caller's goroutine against one snapshot load: k-NN
// traversals are independent, so there is nothing to batch.

// KNN returns the global ids of the k nearest points to q (sorted by
// increasing distance; fewer than k when the set is smaller). It panics
// when k < 1.
func (e *Engine) KNN(q []float64, k int) []int32 {
	if len(q) != e.dim {
		panic("engine: query dimension mismatch")
	}
	s := e.snap.Load()
	pool := s.knnPool(k)
	s.countQueries(1)
	if pool == nil {
		return nil
	}
	buf := pool.Get()
	s.KNNInto(q, -1, buf)
	ids := buf.Result(nil)
	pool.Put(buf)
	return ids
}

// RangeSearch returns the global ids of all points inside the closed box.
func (e *Engine) RangeSearch(box geom.Box) []int32 { return e.snap.Load().RangeSearch(box) }

// RangeCount returns the number of points inside the closed box.
func (e *Engine) RangeCount(box geom.Box) int { return e.snap.Load().RangeCount(box) }
