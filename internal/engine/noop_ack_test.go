package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pargeo/internal/geom"
	"pargeo/internal/wal"
)

// TestNoopAckDurableUnderLoad is the no-op-commit-under-load regression
// cell: while writers keep publishing epochs, concurrent no-op deletes
// (coordinates that never existed) must only ever report epochs that are
// covered by the durable prefix. The old code read the live epoch with no
// lock and waited on LSN 0, so in relaxed mode a no-op could vouch for a
// concurrently published, not-yet-fsynced epoch; crashing without a clean
// Close then recovered an epoch BELOW one the engine had acknowledged.
func TestNoopAckDurableUnderLoad(t *testing.T) {
	for _, syncEvery := range []int{1, 64} {
		t.Run(fmt.Sprintf("syncEvery=%d", syncEvery), func(t *testing.T) {
			fs := wal.NewMemFS()
			opts := durOpts(fs, 4, func(d *Durability) {
				d.SyncEvery = syncEvery
				// Tiny segments force rotations (each an fsync), so in
				// relaxed mode the durable prefix advances mid-run and the
				// reported no-op epochs are non-trivial.
				d.SegmentSize = 512
			})
			e, err := Open(2, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Founding insert establishes the partition.
			seed := geom.NewPoints(32, 2)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < seed.Len(); i++ {
				seed.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
			}
			if res := e.Insert(seed); res.Err != nil {
				t.Fatal(res.Err)
			}

			const writers, deleters, perG = 3, 3, 150
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w) + 100))
					for !stop.Load() {
						p := geom.Points{Data: []float64{r.Float64() * 100, r.Float64() * 100}, Dim: 2}
						if res := e.Insert(p); res.Err != nil {
							t.Errorf("writer %d: %v", w, res.Err)
							return
						}
					}
				}()
			}
			reported := make([]uint64, deleters)
			var dwg sync.WaitGroup
			for d := 0; d < deleters; d++ {
				d := d
				dwg.Add(1)
				go func() {
					defer dwg.Done()
					for i := 0; i < perG; i++ {
						// Far outside every inserted coordinate: matches
						// nothing, so the commit publishes nothing.
						p := geom.Points{Data: []float64{1e6 + float64(d), 1e6 + float64(i)}, Dim: 2}
						res := e.Delete(p)
						if res.Err != nil {
							t.Errorf("deleter %d: %v", d, res.Err)
							return
						}
						if res.Deleted != 0 || len(res.IDs) != 0 {
							t.Errorf("deleter %d: no-op delete reported IDs=%v Deleted=%d", d, res.IDs, res.Deleted)
							return
						}
						if res.Epoch > reported[d] {
							reported[d] = res.Epoch
						}
					}
				}()
			}
			dwg.Wait()
			stop.Store(true)
			wg.Wait()
			if t.Failed() {
				e.Close()
				return
			}

			// Crash WITHOUT a clean Close: the reboot image keeps only what
			// fsync covered. Every epoch a no-op acknowledged must still be
			// reached by recovery.
			img := fs.CrashImage(true)
			e.Close()
			re, err := Open(2, durOpts(img, 4, func(d *Durability) {
				d.SyncEvery = syncEvery
				d.SegmentSize = 512
			}))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer re.Close()
			var maxReported uint64
			for _, ep := range reported {
				if ep > maxReported {
					maxReported = ep
				}
			}
			if got := re.Epoch(); got < maxReported {
				t.Fatalf("recovered epoch %d below no-op-acknowledged epoch %d: ack vouched for a non-durable epoch", got, maxReported)
			}
		})
	}
}

// TestNoopRiderAckDurable is the deterministic form of the failure above:
// it hands commit a hand-built group in which a no-match delete rides with
// an insert, at SyncEvery=64 with no fsync yet due, so the group's own
// epoch is published but not durable. The insert reports that epoch; the
// delete changed nothing and must report an epoch inside the durable prefix
// — whatever the group's shape (one shard, several, the founding commit,
// an unsharded engine) and wherever the rider sits in it. The scheduler
// plays no part, so it holds at any GOMAXPROCS.
func TestNoopRiderAckDurable(t *testing.T) {
	miss := geom.Points{Data: []float64{50.5, 50.5}, Dim: 2} // never inserted
	for _, tc := range []struct {
		name      string
		shards    int
		prefilled bool // a founding insert precedes the group
		multi     bool // the group's insert spans shards
	}{
		{"one shard", 4, true, false},
		{"multi-shard", 4, true, true},
		{"founding", 4, false, true},
		{"unsharded", 1, true, false},
	} {
		for _, deleteFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/deleteFirst=%v", tc.name, deleteFirst), func(t *testing.T) {
				e, err := Open(2, durOpts(wal.NewMemFS(), tc.shards, func(d *Durability) { d.SyncEvery = 64 }))
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				rng := rand.New(rand.NewSource(5))
				batch := func(n int) geom.Points {
					pts := geom.NewPoints(n, 2)
					for i := 0; i < n; i++ {
						pts.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
					}
					return pts
				}
				if tc.prefilled {
					if res := e.Insert(batch(64)); res.Err != nil {
						t.Fatal(res.Err)
					}
				}

				// The group, routed the way Update would route it.
				part := e.part.Load()
				ins := batch(32)
				stream := globalStream
				if part != nil {
					if !tc.multi {
						// Right beside the missing point: the delete's shard.
						ins = geom.Points{Data: []float64{50.5, 50.25}, Dim: 2}
					}
					s, single := singleShard(part, ins, miss)
					if single == tc.multi {
						t.Fatalf("group routes to one shard: %v, want %v", single, !tc.multi)
					}
					if single {
						stream = s
					}
				}
				insert := e.newUpdateReq(ins, geom.Points{Dim: 2})
				rider := e.newUpdateReq(geom.Points{Dim: 2}, miss)
				group := []*updateReq{insert, rider}
				if deleteFirst {
					group = []*updateReq{rider, insert}
				}
				before := e.Epoch()
				e.commit(stream, group)
				<-insert.done
				<-rider.done

				durable := e.log.DurableEpoch()
				if insert.res.Err != nil || len(insert.res.IDs) != ins.Len() || insert.res.Epoch != before+1 || e.Epoch() != before+1 {
					t.Fatalf("insert acked %+v at live epoch %d, want the published epoch %d", insert.res, e.Epoch(), before+1)
				}
				if durable >= insert.res.Epoch {
					t.Fatalf("durable epoch %d already covers the group's epoch %d: no fsync was meant to be due", durable, insert.res.Epoch)
				}
				if rider.res.Err != nil || rider.res.Deleted != 0 || len(rider.res.IDs) != 0 {
					t.Fatalf("no-match delete acked %+v", rider.res)
				}
				if rider.res.Epoch > durable {
					t.Fatalf("no-match delete reported epoch %d above the durable prefix %d: it vouched for its group's un-fsynced epoch", rider.res.Epoch, durable)
				}
			})
		}
	}
}

// TestCheckpointAfterCloseRejected: a checkpoint submitted after Close
// must be refused with ErrClosed and must not touch the directory — the
// old code would happily write checkpoint files and prune WAL segments
// under a directory a successor process may already be recovering from.
func TestCheckpointAfterCloseRejected(t *testing.T) {
	fs := wal.NewMemFS()
	e, err := Open(2, durOpts(fs, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res := e.Insert(geom.Points{Data: []float64{1, 2, 3, 4}, Dim: 2}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := fs.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != ErrClosed {
		t.Fatalf("Checkpoint after Close: err = %v, want ErrClosed", err)
	}
	after, err := fs.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("Checkpoint after Close modified the directory: %v -> %v", before, after)
	}
	re, err := Open(2, durOpts(fs, 2, nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	re.Close()
}

// TestCloseRacesCheckpointTrigger hammers Close against the automatic
// background checkpoint trigger (CheckpointEvery=1: every commit arms
// one) and concurrent explicit Checkpoint calls. Every Checkpoint must
// return nil or ErrClosed (never a write-on-closed-log error), nothing
// acknowledged may be lost, and the engine's goroutines must unwind.
func TestCloseRacesCheckpointTrigger(t *testing.T) {
	func() { // warm global pools so the leak baseline is clean
		fs := wal.NewMemFS()
		e, _ := Open(2, durOpts(fs, 4, nil))
		e.Insert(geom.Points{Data: []float64{1, 1}, Dim: 2})
		e.Close()
	}()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		fs := wal.NewMemFS()
		opts := durOpts(fs, 4, func(d *Durability) {
			d.CheckpointEvery = 1
			d.SegmentSize = 256
		})
		e, err := Open(2, opts)
		if err != nil {
			t.Fatal(err)
		}
		var acked atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*10 + w)))
				for {
					p := geom.Points{Data: []float64{r.Float64() * 100, r.Float64() * 100}, Dim: 2}
					res := e.Insert(p)
					if res.Err != nil {
						if res.Err != ErrClosed {
							t.Errorf("round %d writer %d: %v", round, w, res.Err)
						}
						return
					}
					acked.Add(1)
				}
			}()
		}
		wg.Add(1)
		go func() { // explicit checkpoints racing the background trigger and Close
			defer wg.Done()
			for {
				err := e.Checkpoint()
				if err == ErrClosed {
					return
				}
				if err != nil {
					t.Errorf("round %d: concurrent Checkpoint: %v", round, err)
					return
				}
			}
		}()
		for deadline := time.Now().Add(5 * time.Second); acked.Load() < 20; {
			if time.Now().After(deadline) {
				t.Fatal("writers made no progress")
			}
			time.Sleep(time.Millisecond)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		wg.Wait()
		if err := e.Checkpoint(); err != ErrClosed {
			t.Fatalf("round %d: Checkpoint after Close: %v", round, err)
		}
		re, err := Open(2, durOpts(fs, 4, nil))
		if err != nil {
			t.Fatalf("round %d: reopen after close/checkpoint race: %v", round, err)
		}
		if got := int64(re.Size()); got != acked.Load() {
			t.Fatalf("round %d: recovered %d points, acked %d", round, got, acked.Load())
		}
		re.Close()
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		t.Errorf("goroutine leak: %d after close, baseline %d", g, baseline)
	}
}
