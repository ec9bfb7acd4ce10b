package engine

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
)

// Drifting hot-spot stress: every writer is a "mover" whose churn region
// slides OUT of the founding world box round after round, so its inserts
// and deletes clamp into boundary Morton cells and the partition, fixed at
// founding, funnels the write stream into the edge shards. While the
// movers commit, concurrent readers assert:
//
//   - all-or-nothing visibility: each mover's lane holds either its static
//     founding population or static + one full batch, never anything else,
//     even while the lane's points sit outside the original world box;
//   - per-goroutine epoch monotonicity;
//   - snapshot self-consistency (universe count == size).
//
// At close-out every query class must match brute force, so rows routed
// by clamping are found by pruning too.
//
// Run with -race. The long configuration (nightly stress.yml) is enabled by
// PARGEO_STRESS=1.

func driftStress(t *testing.T, writers, readers, rounds, foundingN, batchB int) {
	const dim = 2
	e := New(dim, Options{BufferSize: 64, Shards: 4})
	defer e.Close()

	founding := generators.UniformCube(foundingN, dim, 1)
	fres := e.Insert(founding)
	if e.part.Load() == nil {
		t.Fatal("founding commit did not establish the partition")
	}

	// Mover w owns a thin y-lane; each round its batch slides +drift in x
	// AND +drift in y·0 (lane fixed) — the x slide exits the founding box
	// after a few rounds, and a shared diagonal offset pushes every lane's
	// x AND the global mass outward so codes clamp to corner cells.
	laneY := func(w int) float64 { return 10 + 80*float64(w)/float64(writers) }
	moverBatch := func(w, r int) geom.Points {
		pts := geom.NewPoints(batchB, dim)
		y := laneY(w)
		drift := 30 * float64(r) // exits the ~[0,100] founding box quickly
		for j := 0; j < batchB; j++ {
			pts.Set(j, []float64{drift + float64(j)*100.0/float64(batchB), y + float64(j%5)*0.001})
		}
		return pts
	}
	laneBox := func(w int) geom.Box {
		y := laneY(w)
		return geom.Box{Min: []float64{-1e9, y - 0.0005}, Max: []float64{1e9, y + 0.0055}}
	}

	static := make([]int, writers)
	for w := 0; w < writers; w++ {
		static[w] = e.RangeCount(laneBox(w))
	}

	var stop atomic.Bool
	var wwg, rwg sync.WaitGroup
	errs := make(chan string, writers+readers)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
		stop.Store(true)
	}

	finalIDs := make([][]int32, writers)
	finalPts := make([]geom.Points, writers)
	for w := 0; w < writers; w++ {
		w := w
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			var prev geom.Points
			prevSet := false
			for r := 0; r < rounds && !stop.Load(); r++ {
				batch := moverBatch(w, r)
				var res UpdateResult
				if prevSet {
					res = e.Update(batch, prev) // move: new in, old out, one commit
				} else {
					res = e.Insert(batch)
				}
				if len(res.IDs) != batchB {
					fail("mover %d: %d ids", w, len(res.IDs))
					return
				}
				// Own-lane read-your-writes.
				if got := e.RangeCount(laneBox(w)); got != static[w]+batchB {
					fail("mover %d round %d: own lane count %d, want %d", w, r, got, static[w]+batchB)
					return
				}
				prev, prevSet = batch, true
				finalIDs[w], finalPts[w] = res.IDs, batch
			}
		}()
	}

	for rd := 0; rd < readers; rd++ {
		rd := rd
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			lastEpoch := uint64(0)
			rng := uint64(rd)*0x9e3779b97f4a7c15 + 1
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				w := int(rng % uint64(writers))
				if c := e.RangeCount(laneBox(w)); c != static[w] && c != static[w]+batchB {
					fail("reader %d: torn lane %d: count %d, want %d or %d",
						rd, w, c, static[w], static[w]+batchB)
					return
				}
				snap := e.Snapshot()
				if snap.Epoch() < lastEpoch {
					fail("reader %d: epoch went backward %d -> %d", rd, lastEpoch, snap.Epoch())
					return
				}
				lastEpoch = snap.Epoch()
				if got := snap.RangeCount(universeBox()); got != snap.Size() {
					fail("reader %d: snapshot universe count %d != size %d", rd, got, snap.Size())
					return
				}
			}
		}()
	}

	wwg.Wait()
	stop.Store(true)
	rwg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	world, clamped := e.part.Load().world, 0
	for w := 0; w < writers; w++ {
		for i := 0; i < finalPts[w].Len(); i++ {
			if !world.Contains(finalPts[w].At(i)) {
				clamped++
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no mover left the founding world box; clamped routing went untested")
	}
	if e.Size() != foundingN+writers*batchB {
		t.Fatalf("final size %d, want %d", e.Size(), foundingN+writers*batchB)
	}
	// Full differential close-out: the live set is exactly founding + each
	// mover's last batch; every query class must match brute force.
	m := &oracle.LiveSet{Dim: dim}
	m.Insert(fres.IDs, founding)
	for w := 0; w < writers; w++ {
		m.Insert(finalIDs[w], finalPts[w])
	}
	checkAgainstOracle(t, e, m, 41)
}

func TestDriftStress(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 6
	}
	driftStress(t, 3, 4, rounds, 2000, 120)
}

// TestDriftStressLong is the nightly configuration (stress.yml): more
// movers, readers, rounds, and mass, under -race -count=3. Gated behind
// PARGEO_STRESS=1 — far too slow for per-PR CI.
func TestDriftStressLong(t *testing.T) {
	if os.Getenv("PARGEO_STRESS") == "" {
		t.Skip("long stress: set PARGEO_STRESS=1 (nightly CI)")
	}
	driftStress(t, 6, 8, 60, 20000, 400)
}
