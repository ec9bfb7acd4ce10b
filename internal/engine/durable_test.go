package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/wal"
)

// durOpts returns durable engine options over fs with strict sync.
func durOpts(fs wal.VFS, shards int, tune func(*Durability)) Options {
	d := &Durability{Dir: "db", FS: fs, SyncEvery: 1}
	if tune != nil {
		tune(d)
	}
	return Options{Shards: shards, Durability: d}
}

// liveState extracts an engine snapshot's live set as a canonical sorted
// list of "id@coords" strings, comparable across engines and models.
func liveState(pts geom.Points, ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("%d@%v", id, pts.At(i))
	}
	sort.Strings(out)
	return out
}

func engineState(e *Engine) []string {
	pts, ids := e.Snapshot().Points()
	return liveState(pts, ids)
}

func modelState(m *oracle.LiveSet) []string {
	return liveState(m.Points(), m.IDs)
}

func diffStates(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d live points, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: live set mismatch at %d: %s vs %s", label, i, got[i], want[i])
		}
	}
}

// TestDurableRestartRoundTrip is the basic durability smoke test:
// commit, checkpoint mid-stream, close cleanly, reopen, verify the
// exact live set, epoch continuity, and that the id generator does not
// re-issue ids after restart.
func TestDurableRestartRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	e, err := Open(2, durOpts(fs, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	model := &oracle.LiveSet{Dim: 2}
	rng := rand.New(rand.NewSource(7))
	batch := func(n int) geom.Points {
		p := geom.NewPoints(n, 2)
		for i := 0; i < n; i++ {
			p.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
		}
		return p
	}
	for step := 0; step < 8; step++ {
		ins := batch(16)
		res := e.Insert(ins)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		model.Insert(res.IDs, ins)
		if step == 3 {
			// Delete a quarter of the live set by coordinates.
			del := geom.Points{Dim: 2}
			for i := 0; i < len(model.IDs); i += 4 {
				del.Data = append(del.Data, model.Coords[i*2:(i+1)*2]...)
			}
			dres := e.Delete(del)
			if dres.Err != nil {
				t.Fatal(dres.Err)
			}
			if got := model.Remove(del); got != dres.Deleted {
				t.Fatalf("deleted %d, model %d", dres.Deleted, got)
			}
		}
		if step == 5 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	epoch := e.Epoch()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if res := e.Insert(batch(1)); res.Err != ErrClosed {
		t.Fatalf("insert after close: %v", res.Err)
	}

	re, err := Open(2, durOpts(fs, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Epoch(); got != epoch {
		t.Fatalf("recovered epoch %d, want %d", got, epoch)
	}
	diffStates(t, "after restart", engineState(re), modelState(model))
	// New ids must not collide with recovered ones.
	seen := map[int32]bool{}
	for _, id := range model.IDs {
		seen[id] = true
	}
	ins := batch(8)
	res := re.Insert(ins)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, id := range res.IDs {
		if seen[id] {
			t.Fatalf("id %d re-issued after restart", id)
		}
	}
	model.Insert(res.IDs, ins)
	diffStates(t, "after post-restart insert", engineState(re), modelState(model))
}

// TestDurableDimMismatchRejected: opening a directory that holds data of
// a different dimensionality must fail, not silently corrupt.
func TestDurableDimMismatchRejected(t *testing.T) {
	fs := wal.NewMemFS()
	e, err := Open(3, durOpts(fs, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	e.Insert(geom.Points{Data: []float64{1, 2, 3}, Dim: 3})
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := Open(2, durOpts(fs, 2, nil)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// checkpoint round-trip property test: for every distribution × dim —
// including duplicate-coordinate and tombstone-heavy inputs — the
// serialize→restore cycle (ExtractRange → checkpoint encode → decode →
// NewFromSorted inside Checkpoint/Open) must reproduce a tree that
// answers KNN and range queries exactly like the brute-force oracle over
// the surviving live set.
func TestCheckpointRoundTripProperty(t *testing.T) {
	type distCase struct {
		name string
		gen  func(n, dim int, seed uint64) geom.Points
	}
	cases := []distCase{
		{"Uniform", generators.UniformCube},
		{"InSphere", generators.InSphere},
		{"OnSphere", generators.OnSphere},
		{"SeedSpreader", generators.SeedSpreader},
		{"Duplicated", func(n, dim int, seed uint64) geom.Points {
			base := generators.UniformCube((n+3)/4, dim, seed)
			pts := geom.NewPoints(n, dim)
			for i := 0; i < n; i++ {
				pts.Set(i, base.At(i%base.Len()))
			}
			return pts
		}},
		{"Collinear", func(n, dim int, seed uint64) geom.Points {
			pts := geom.NewPoints(n, dim)
			row := make([]float64, dim)
			for i := 0; i < n; i++ {
				for c := range row {
					row[c] = float64(i) * float64(c+1)
				}
				pts.Set(i, row)
			}
			return pts
		}},
		{"SinglePoint", func(n, dim int, seed uint64) geom.Points {
			pts := geom.NewPoints(n, dim)
			row := make([]float64, dim)
			for c := range row {
				row[c] = 3.25
			}
			for i := 0; i < n; i++ {
				pts.Set(i, row)
			}
			return pts
		}},
	}
	const n = 240
	dims := []int{2, 3, 5}
	if testing.Short() {
		dims = []int{2, 3}
	}
	for _, tc := range cases {
		for _, dim := range dims {
			t.Run(fmt.Sprintf("%s/d%d", tc.name, dim), func(t *testing.T) {
				fs := wal.NewMemFS()
				e, err := Open(dim, durOpts(fs, 4, nil))
				if err != nil {
					t.Fatal(err)
				}
				model := &oracle.LiveSet{Dim: dim}
				pts := tc.gen(n, dim, 11)
				res := e.Insert(pts)
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				model.Insert(res.IDs, pts)
				// Tombstone-heavy: delete half the batch by coordinates
				// (under Duplicated/SinglePoint this wipes whole duplicate
				// groups, exactly the BDL delete semantics).
				del := geom.Points{Dim: dim}
				for i := 0; i < n; i += 2 {
					del.Data = append(del.Data, pts.At(i)...)
				}
				dres := e.Delete(del)
				if dres.Err != nil {
					t.Fatal(dres.Err)
				}
				if got := model.Remove(del); got != dres.Deleted {
					t.Fatalf("deleted %d, model %d", dres.Deleted, got)
				}
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}

				re, err := Open(dim, durOpts(fs, 4, nil))
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				diffStates(t, "restored", engineState(re), modelState(model))

				// Query equivalence vs the brute-force oracle.
				live := model.Points()
				for qi := 0; qi < 12; qi++ {
					q := pts.At((qi * 17) % n)
					for _, k := range []int{1, 4} {
						got := re.KNN(q, k)
						want := oracle.KNNDists(live, q, k, -1)
						if len(got) != len(want) {
							t.Fatalf("q%d k%d: %d neighbors, oracle %d", qi, k, len(got), len(want))
						}
						for j, id := range got {
							c := model.CoordsOf(id)
							if c == nil {
								t.Fatalf("q%d k%d: dead id %d", qi, k, id)
							}
							if d := geom.SqDist(q, c); d != want[j] {
								t.Fatalf("q%d k%d: neighbor %d at %v, oracle %v", qi, k, j, d, want[j])
							}
						}
					}
					box := geom.EmptyBox(dim)
					box.Expand(pts.At((qi * 13) % n))
					box.Expand(pts.At((qi*13 + 31) % n))
					gotIDs := append([]int32(nil), re.RangeSearch(box)...)
					var wantIDs []int32
					for i, id := range model.IDs {
						if box.Contains(live.At(i)) {
							wantIDs = append(wantIDs, id)
						}
					}
					sort.Slice(gotIDs, func(a, b int) bool { return gotIDs[a] < gotIDs[b] })
					sort.Slice(wantIDs, func(a, b int) bool { return wantIDs[a] < wantIDs[b] })
					if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
						t.Fatalf("q%d: range ids %v, oracle %v", qi, gotIDs, wantIDs)
					}
					if c := re.RangeCount(box); c != len(wantIDs) {
						t.Fatalf("q%d: range count %d, oracle %d", qi, c, len(wantIDs))
					}
				}
			})
		}
	}
}

// TestCloseWithInflightCommits is the Close regression test: concurrent
// writers race a Close; every update must either be acknowledged durably
// or rejected with ErrClosed (never hang, never ack-then-lose), the
// engine's goroutines must exit, and the clean shutdown must leave no
// torn tail — everything acknowledged must survive reopen.
func TestCloseWithInflightCommits(t *testing.T) {
	// Warm up global state (parlay workers, pools) so the goroutine
	// baseline below measures only this test's leaks.
	func() {
		fs := wal.NewMemFS()
		e, _ := Open(2, durOpts(fs, 4, nil))
		e.Insert(geom.Points{Data: []float64{1, 1}, Dim: 2})
		e.Close()
	}()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	fs := wal.NewMemFS()
	opts := durOpts(fs, 4, nil)
	opts.Rebalance = true
	e, err := Open(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	stopRebalance := rebalanceEveryMs(e)

	const writers = 8
	type ack struct {
		id int32
		x  float64
		y  float64
	}
	ackedCh := make(chan ack, 1<<16)
	var nAcked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				x, y := rng.Float64()*100, rng.Float64()*100
				res := e.Insert(geom.Points{Data: []float64{x, y}, Dim: 2})
				if res.Err != nil {
					if res.Err != ErrClosed {
						t.Errorf("writer %d: %v", w, res.Err)
					}
					return
				}
				// Acked: with SyncEvery=1 this point is durable NOW.
				ackedCh <- ack{res.IDs[0], x, y}
				nAcked.Add(1)
			}
		}()
	}
	// Close only once real commits are in flight, so the shutdown truly
	// races active writers rather than an idle engine.
	for deadline := time.Now().Add(5 * time.Second); nAcked.Load() < 50; {
		if time.Now().After(deadline) {
			t.Fatal("writers made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	stopRebalance()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(ackedCh)

	// No goroutine leak: rebalancer, checkpointer, and all commit paths
	// must have unwound. (Parlay's worker pool is global and counted in
	// the baseline.)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		t.Errorf("goroutine leak: %d after close, baseline %d", g, baseline)
	}

	re, err := Open(2, durOpts(fs, 4, nil))
	if err != nil {
		t.Fatalf("reopen after clean shutdown: %v", err)
	}
	defer re.Close()
	pts, ids := re.Snapshot().Points()
	have := map[int32][]float64{}
	for i, id := range ids {
		have[id] = pts.At(i)
	}
	nacked := 0
	for a := range ackedCh {
		nacked++
		c, ok := have[a.id]
		if !ok {
			t.Fatalf("acked id %d lost on clean shutdown", a.id)
		}
		if c[0] != a.x || c[1] != a.y {
			t.Fatalf("acked id %d coords %v, want [%v %v]", a.id, c, a.x, a.y)
		}
	}
	if nacked < 50 {
		t.Fatalf("only %d updates acked before Close; test raced to nothing", nacked)
	}
}

// TestCloseRelaxedModeFlushesTail: in SyncEvery>1 mode a clean Close
// must fsync the unsynced tail so nothing acknowledged is lost.
func TestCloseRelaxedModeFlushesTail(t *testing.T) {
	fs := wal.NewMemFS()
	e, err := Open(2, durOpts(fs, 2, func(d *Durability) { d.SyncEvery = 64 }))
	if err != nil {
		t.Fatal(err)
	}
	model := &oracle.LiveSet{Dim: 2}
	for i := 0; i < 100; i++ {
		p := geom.Points{Data: []float64{float64(i), float64(i % 7)}, Dim: 2}
		res := e.Insert(p)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		model.Insert(res.IDs, p)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(2, durOpts(fs, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	diffStates(t, "relaxed clean shutdown", engineState(re), modelState(model))
}
