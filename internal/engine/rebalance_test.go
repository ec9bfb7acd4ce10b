package engine

import (
	"sync"
	"testing"
	"time"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
)

// offsetPoints returns a copy of pts translated by (dx, dy).
func offsetPoints(pts geom.Points, dx, dy float64) geom.Points {
	out := geom.Points{Data: append([]float64(nil), pts.Data...), Dim: pts.Dim}
	for i := 0; i < out.Len(); i++ {
		p := out.At(i)
		p[0] += dx
		p[1] += dy
	}
	return out
}

// rebalanceEveryMs runs e.Rebalance — the background loop's body — every
// millisecond, 25× denser than the loop, until the returned stop is
// called. stop returns once no pass is running, so it must come before
// Close.
func rebalanceEveryMs(e *Engine) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				e.Rebalance()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// scalePoints returns a copy of pts scaled into box [lo,hi]^2 assuming the
// source covers its own bounding box.
func scaleInto(pts geom.Points, lo, hi float64) geom.Points {
	b := geom.BoundingBoxAll(pts)
	out := geom.Points{Data: append([]float64(nil), pts.Data...), Dim: pts.Dim}
	for i := 0; i < out.Len(); i++ {
		p := out.At(i)
		for c := range p {
			ext := b.Max[c] - b.Min[c]
			f := 0.0
			if ext > 0 {
				f = (p[c] - b.Min[c]) / ext
			}
			p[c] = lo + f*(hi-lo)
		}
	}
	return out
}

// TestRebalanceSplitMergeHotShard: concentrating mass into one shard must
// trigger a split/merge that lowers the maximum shard population, keeps the
// shard count, preserves every live point, and leaves all query answers
// exactly equal to brute force.
func TestRebalanceSplitMergeHotShard(t *testing.T) {
	const dim = 2
	e := New(dim, Options{BufferSize: 64, Shards: 4})
	m := &oracle.LiveSet{Dim: dim}

	founding := generators.UniformCube(1000, dim, 1)
	res := e.Insert(founding)
	m.Insert(res.IDs, founding)
	boundsBefore := append([]uint64(nil), e.part.Load().bounds...)

	// Hammer one quadrant: a spread-out cluster so its shard becomes hot
	// but its Morton codes still separate at a median.
	world := geom.BoundingBoxAll(founding)
	cluster := scaleInto(generators.UniformCube(3000, dim, 2), world.Min[0], world.Min[0]+(world.Max[0]-world.Min[0])*0.4)
	res = e.Insert(cluster)
	m.Insert(res.IDs, cluster)

	sizesBefore := e.Snapshot().ShardSizes()
	maxBefore := 0
	for _, s := range sizesBefore {
		if s > maxBefore {
			maxBefore = s
		}
	}
	epochBefore := e.Epoch()

	act := e.Rebalance()
	if act != RebalanceSplitMerge {
		t.Fatalf("rebalance action %v, want split/merge (shard sizes %v)", act, sizesBefore)
	}
	if e.Rebalances() != 1 {
		t.Fatalf("migration count %d", e.Rebalances())
	}
	if e.Epoch() != epochBefore+1 {
		t.Fatalf("migration must publish one epoch: %d -> %d", epochBefore, e.Epoch())
	}
	if got := e.Snapshot().Shards(); got != 4 {
		t.Fatalf("shard count changed to %d", got)
	}
	if e.Size() != len(m.IDs) {
		t.Fatalf("size %d after migration, want %d", e.Size(), len(m.IDs))
	}
	sizesAfter := e.Snapshot().ShardSizes()
	maxAfter := 0
	for _, s := range sizesAfter {
		if s > maxAfter {
			maxAfter = s
		}
	}
	if maxAfter >= maxBefore {
		t.Fatalf("split did not lower the hot shard: %v -> %v", sizesBefore, sizesAfter)
	}
	boundsAfter := e.part.Load().bounds
	same := len(boundsBefore) == len(boundsAfter)
	if same {
		for i := range boundsAfter {
			if boundsAfter[i] != boundsBefore[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("migration left the partition boundaries unchanged")
	}
	checkAgainstOracle(t, e, m, 7)

	// The engine keeps committing correctly against the migrated partition:
	// single-shard and spanning batches, plus deletions of pre-migration
	// points (routed under the new partition by coordinates).
	more := generators.UniformCube(500, dim, 3)
	res = e.Insert(more)
	m.Insert(res.IDs, more)
	del := geom.Points{Data: cluster.Data[:200*dim], Dim: dim}
	dres := e.Delete(del)
	if want := m.Remove(del); dres.Deleted != want {
		t.Fatalf("post-migration delete removed %d, want %d", dres.Deleted, want)
	}
	checkAgainstOracle(t, e, m, 11)
}

// TestRebalanceRepartitionOnDrift: once inserts land outside the founding
// world box (clamped into boundary cells), a rebalance pass must rebuild
// the partition under a widened world; answers stay exact before, during,
// and after, and the drifted region stops aliasing.
func TestRebalanceRepartitionOnDrift(t *testing.T) {
	const dim = 2
	e := New(dim, Options{BufferSize: 64, Shards: 4})
	m := &oracle.LiveSet{Dim: dim}

	founding := generators.UniformCube(2000, dim, 5)
	res := e.Insert(founding)
	m.Insert(res.IDs, founding)
	world0 := e.part.Load().world

	// Drift: a whole batch far outside the founding box.
	drifted := offsetPoints(generators.UniformCube(600, dim, 6), 500, 500)
	res = e.Insert(drifted)
	m.Insert(res.IDs, drifted)
	checkAgainstOracle(t, e, m, 13) // conservative edge cells keep answers exact pre-migration
	if got := e.outOfWorld.Load(); got != 600 {
		t.Fatalf("drift counter %d, want 600", got)
	}

	if act := e.Rebalance(); act != RebalanceRepartition {
		t.Fatalf("rebalance action %v, want repartition", act)
	}
	part := e.part.Load()
	if part.world.Max[0] <= world0.Max[0] {
		t.Fatalf("world box not widened: %v -> %v", world0, part.world)
	}
	for i := 0; i < drifted.Len(); i++ {
		if !part.world.Contains(drifted.At(i)) {
			t.Fatal("repartitioned world does not cover the drifted mass")
		}
	}
	if e.outOfWorld.Load() != 0 {
		t.Fatal("drift counter not reset by repartition")
	}
	checkAgainstOracle(t, e, m, 17)

	// Fresh inserts in the drifted region are in-world now.
	more := offsetPoints(generators.UniformCube(300, dim, 7), 480, 480)
	res = e.Insert(more)
	m.Insert(res.IDs, more)
	if got := e.outOfWorld.Load(); got != 0 {
		t.Fatalf("in-world inserts still counted as drift: %d", got)
	}
	checkAgainstOracle(t, e, m, 19)
}

// TestRebalanceBackgroundLoop: Options.Rebalance must start a loop that
// migrates without manual passes, and Close must stop it.
func TestRebalanceBackgroundLoop(t *testing.T) {
	const dim = 2
	e := New(dim, Options{BufferSize: 64, Shards: 4, Rebalance: true})
	defer e.Close()
	m := &oracle.LiveSet{Dim: dim}

	founding := generators.UniformCube(1000, dim, 9)
	res := e.Insert(founding)
	m.Insert(res.IDs, founding)
	drifted := offsetPoints(generators.UniformCube(600, dim, 10), 300, 300)
	res = e.Insert(drifted)
	m.Insert(res.IDs, drifted)

	deadline := time.Now().Add(5 * time.Second)
	for e.Rebalances() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Rebalances() == 0 {
		t.Fatal("background rebalancer never migrated")
	}
	checkAgainstOracle(t, e, m, 23)
	e.Close()
	e.Close() // idempotent
}

// TestRebalanceConcurrentWriters: migrations racing live writers must lose
// no update — the commit paths detect a swapped partition under their shard
// locks and re-route. Writers mix single-shard and spanning batches while a
// rebalancer thread migrates continuously.
func TestRebalanceConcurrentWriters(t *testing.T) {
	const dim = 2
	e := New(dim, Options{BufferSize: 64, Shards: 4})
	founding := generators.UniformCube(1000, dim, 11)
	e.Insert(founding)

	const writers = 6
	const perWriter = 40
	const batchB = 50
	var wg sync.WaitGroup
	type commit struct {
		ids []int32
		pts geom.Points
	}
	results := make([][]commit, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perWriter; r++ {
				var batch geom.Points
				switch w % 3 {
				case 0: // tight cluster: single-shard path
					batch = scaleInto(generators.UniformCube(batchB, dim, uint64(w*1000+r)), 10+float64(w), 12+float64(w))
				case 1: // spanning batch: multi-shard path
					batch = generators.UniformCube(batchB, dim, uint64(w*1000+r))
				default: // drifting out of the founding box
					batch = offsetPoints(generators.UniformCube(batchB, dim, uint64(w*1000+r)), float64(100+3*r), float64(100+3*r))
				}
				res := e.Insert(batch)
				if len(res.IDs) != batchB {
					t.Errorf("writer %d round %d: %d ids", w, r, len(res.IDs))
					return
				}
				results[w] = append(results[w], commit{res.IDs, batch})
			}
		}()
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Rebalance()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()

	if e.Size() != 1000+writers*perWriter*batchB {
		t.Fatalf("size %d, want %d", e.Size(), 1000+writers*perWriter*batchB)
	}
	// Every id exactly once, and every committed point present.
	_, gids := e.Snapshot().Points()
	seen := make(map[int32]bool, len(gids))
	for _, id := range gids {
		if seen[id] {
			t.Fatalf("id %d present twice after migrations", id)
		}
		seen[id] = true
	}
	for w := range results {
		for _, c := range results[w] {
			for _, id := range c.ids {
				if !seen[id] {
					t.Fatalf("writer %d lost id %d across a migration", w, id)
				}
			}
		}
	}
}

// TestPreFoundingDeletes: deletes (and empty updates) issued before any
// insertion has ever committed must return a zero UpdateResult at the
// current epoch — no panic, no wedge, no spurious epoch churn — from many
// goroutines at once, on sharded and unsharded engines alike.
func TestPreFoundingDeletes(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e := New(2, Options{Shards: shards})
		const gor = 8
		var wg sync.WaitGroup
		for g := 0; g < gor; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					batch := generators.UniformCube(20, 2, uint64(g*10+i)+1)
					res := e.Delete(batch)
					if res.Deleted != 0 || len(res.IDs) != 0 {
						t.Errorf("shards=%d: pre-founding delete result %+v", shards, res)
						return
					}
					if res.Epoch != 0 {
						t.Errorf("shards=%d: pre-founding delete advanced the epoch to %d", shards, res.Epoch)
						return
					}
					if res := e.Update(geom.Points{Dim: 2}, geom.Points{Dim: 2}); res.Epoch != 0 {
						t.Errorf("shards=%d: empty update advanced the epoch", shards)
						return
					}
				}
			}()
		}
		wg.Wait()
		if e.Epoch() != 0 || e.Size() != 0 {
			t.Fatalf("shards=%d: epoch %d size %d after pre-founding deletes", shards, e.Epoch(), e.Size())
		}
		// The founding insertion must still establish the partition normally.
		m := &oracle.LiveSet{Dim: 2}
		batch := generators.UniformCube(400, 2, 99)
		res := e.Insert(batch)
		if res.Epoch == 0 || len(res.IDs) != 400 {
			t.Fatalf("shards=%d: founding after deletes: %+v", shards, res)
		}
		m.Insert(res.IDs, batch)
		checkAgainstOracle(t, e, m, 31)
	}
}
