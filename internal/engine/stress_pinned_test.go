package engine

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

// Pinned-reader stress: long-running analytics over pinned snapshots while
// a writer churns, drifting out of the founding world box. Each
// analytics goroutine pins the latest epoch, runs KNNGraph/CoreDistances/
// AllKNN over it, and asserts frozen-world invariants the whole time:
//
//   - the pinned snapshot's size, epoch, and universe count never change,
//     however many commits happen after the pin;
//   - AsOf(pinned epoch) keeps resolving to a same-sized version for as
//     long as the pin is held, even when the epoch is far behind the
//     retention watermark;
//   - the analytics answers are internally consistent (no node lists
//     itself, pad rows only when the set is smaller than k).
//
// Run with -race. The long configuration (nightly stress.yml) is enabled
// by PARGEO_STRESS=1.

func pinnedReaderStress(t *testing.T, analysts, rounds, foundingN, batchB int) {
	const dim = 2
	e := New(dim, Options{BufferSize: 64, Shards: 4, RetainEpochs: 8})
	defer e.Close()

	founding := generators.UniformCube(foundingN, dim, 1)
	if res := e.Insert(founding); res.Err != nil {
		t.Fatal(res.Err)
	}

	var stop atomic.Bool
	errs := make(chan string, analysts+2)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
		stop.Store(true)
	}

	var wg sync.WaitGroup
	// Writer: inserts+deletes drifting out of the founding world box
	// (clamped into boundary cells) underneath the pins.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev geom.Points
		prevSet := false
		for r := 0; r < rounds && !stop.Load(); r++ {
			batch := geom.NewPoints(batchB, dim)
			drift := 30 * float64(r)
			for j := 0; j < batchB; j++ {
				batch.Set(j, []float64{drift + float64(j)*0.1, 50 + float64(j%7)*0.01})
			}
			var res UpdateResult
			if prevSet {
				res = e.Update(batch, prev)
			} else {
				res = e.Insert(batch)
			}
			if res.Err != nil {
				fail("writer round %d: %v", r, res.Err)
				return
			}
			prev, prevSet = batch, true
		}
	}()
	for a := 0; a < analysts; a++ {
		a := a
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; !stop.Load(); it++ {
				s := e.Pin()
				epoch, size := s.Epoch(), s.Size()
				k := 3 + (a+it)%3
				switch it % 3 {
				case 0:
					g := s.KNNGraph(k)
					if len(g.IDs) != size || len(g.Neighbors) != size*k {
						s.Release()
						fail("analyst %d: graph shape %d/%d over size %d", a, len(g.IDs), len(g.Neighbors), size)
						return
					}
					for i, id := range g.IDs {
						for j := 0; j < k; j++ {
							if g.Neighbors[i*k+j] == id {
								s.Release()
								fail("analyst %d: node %d is its own neighbor", a, id)
								return
							}
						}
					}
				case 1:
					ids, core := s.CoreDistances(k)
					if len(ids) != size || len(core) != size {
						s.Release()
						fail("analyst %d: core shape %d/%d over size %d", a, len(ids), len(core), size)
						return
					}
				case 2:
					pts, _ := s.Points()
					ids := s.AllKNN(pts, k, nil)
					if len(ids) != size*k {
						s.Release()
						fail("analyst %d: allknn shape %d over size %d", a, len(ids), size)
						return
					}
				}
				// The pinned version must not have moved underneath the job,
				// and its epoch must still resolve while pinned.
				if s.Epoch() != epoch || s.Size() != size {
					s.Release()
					fail("analyst %d: pinned snapshot mutated: %d/%d -> %d/%d",
						a, epoch, size, s.Epoch(), s.Size())
					return
				}
				got, err := e.AsOf(epoch)
				if err != nil {
					s.Release()
					fail("analyst %d: AsOf(pinned %d) while held: %v", a, epoch, err)
					return
				}
				if got.Size() != size {
					s.Release()
					fail("analyst %d: AsOf(pinned %d) size %d, want %d", a, epoch, got.Size(), size)
					return
				}
				s.Release()
			}
		}()
	}

	// Writer finishing stops everyone.
	go func() {
		for !stop.Load() {
			time.Sleep(time.Millisecond)
			if e.Epoch() >= uint64(rounds) {
				stop.Store(true)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if st := e.Stats(); st.PinnedEpochs != 0 {
		t.Fatalf("pins leaked: %d epochs still pinned after shutdown", st.PinnedEpochs)
	}
}

func TestPinnedAnalyticsStress(t *testing.T) {
	rounds := 30
	if testing.Short() {
		rounds = 10
	}
	pinnedReaderStress(t, 2, rounds, 2000, 150)
}

// TestPinnedAnalyticsStressLong is the nightly configuration (stress.yml):
// more analysts, rounds, and mass, under -race -count=3. Gated behind
// PARGEO_STRESS=1 — far too slow for per-PR CI.
func TestPinnedAnalyticsStressLong(t *testing.T) {
	if os.Getenv("PARGEO_STRESS") == "" {
		t.Skip("long stress: set PARGEO_STRESS=1 (nightly CI)")
	}
	pinnedReaderStress(t, 4, 120, 10000, 400)
}
