package engine

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/wal"
)

// The crash-point matrix: a deterministic scripted workload is run
// against a MemFS armed to crash at the Nth fallible file-system
// operation, for EVERY reachable N, crossed with {clean, torn-write}
// failure modes and {keep, drop}-unsynced reboot images. Recovery from
// each of the 4N images must reproduce exactly the state an oracle
// (LiveSet replay of the script prefix) predicts for the recovered
// epoch, and the recovered epoch must lie in [last acked, last
// submitted] — acknowledged batches are never lost (SyncEvery=1 acks
// after fsync), and at most the one in-flight batch may surface beyond
// them.

// crashStep is one scripted operation: an update (ins/del) or a manual
// checkpoint.
type crashStep struct {
	ins  geom.Points
	del  geom.Points
	ckpt bool
}

const crashSegSize = 256 // tiny segments force rotations mid-script

func crashScriptOpts(fs wal.VFS) Options {
	return Options{Shards: 4, Durability: &Durability{
		Dir: "db", FS: fs, SyncEvery: 1, SegmentSize: crashSegSize,
	}}
}

// buildCrashScript returns the scripted steps plus the oracle state
// after every published epoch: states[e] is the canonical live set an
// engine recovered at epoch e must hold. Every update step changes the
// live set, so step i publishes exactly epoch i (checkpoint steps
// publish nothing). Delete batches are drawn from the simulated live
// set so none is a no-op.
func buildCrashScript() (steps []crashStep, states [][]string) {
	rng := rand.New(rand.NewSource(42))
	model := &oracle.LiveSet{Dim: 2}
	nextID := int32(0)
	states = append(states, modelState(model)) // epoch 0: pre-founding

	insert := func(n int) {
		pts := geom.NewPoints(n, 2)
		for i := 0; i < n; i++ {
			pts.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
		}
		steps = append(steps, crashStep{ins: pts})
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = nextID
			nextID++
		}
		model.Insert(ids, pts)
		states = append(states, modelState(model))
	}
	del := func(n int) {
		live := model.Points()
		batch := geom.Points{Dim: 2}
		stride := live.Len() / n
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < live.Len() && batch.Len() < n; i += stride {
			batch.Data = append(batch.Data, live.At(i)...)
		}
		steps = append(steps, crashStep{del: batch})
		model.Remove(batch)
		states = append(states, modelState(model))
	}
	ckpt := func() { steps = append(steps, crashStep{ckpt: true}) }
	// update is one scripted step of explicit rows, deletes before
	// inserts like a commit group; it must change the live set.
	update := func(ins, del []float64) {
		step := crashStep{ins: geom.Points{Data: ins, Dim: 2}, del: geom.Points{Data: del, Dim: 2}}
		steps = append(steps, step)
		model.Remove(step.del)
		ids := make([]int32, step.ins.Len())
		for i := range ids {
			ids[i] = nextID
			nextID++
		}
		model.Insert(ids, step.ins)
		states = append(states, modelState(model))
	}
	nan := math.NaN()

	insert(12) // founding
	insert(8)
	del(4)
	insert(8)
	ckpt() // mid-script checkpoint: crash points inside WriteCheckpoint + prune
	insert(6)
	del(5)
	insert(8)
	del(3)
	ckpt() // second checkpoint: prunes segments with live history behind it
	// Rows recovery must replay the way the live engine applies them: a
	// -0 delete removes the +0 row, a NaN delete removes nothing, and a
	// delete followed by a re-insert of the same coordinates keeps one
	// row, within one record and across two.
	update([]float64{0, 1, nan, 2, 3, 3}, nil)
	update(nil, []float64{math.Copysign(0, -1), 1, nan, 2})
	update([]float64{3, 3}, []float64{3, 3})
	update([]float64{0, 1}, nil)
	insert(8)
	insert(6)
	del(4)
	insert(8)
	return steps, states
}

// runCrashScript executes the script on fs, tolerating injected
// failures, and returns the highest acknowledged epoch. With
// SyncEvery=1 an acknowledged epoch is durable by contract.
func runCrashScript(fs wal.VFS, steps []crashStep) (lastAcked uint64) {
	e, err := Open(2, crashScriptOpts(fs))
	if err != nil {
		return 0 // crashed inside Open: nothing was ever acknowledged
	}
	defer e.Close() // post-crash Close errors are expected; recovery is the test
	for _, s := range steps {
		if s.ckpt {
			e.Checkpoint() //nolint:errcheck // injected failure: WAL retains everything
			continue
		}
		if res := e.Update(s.ins, s.del); res.Err == nil {
			lastAcked = res.Epoch
		}
		// No-op cell: a delete matching nothing publishes no epoch, but
		// the epoch it reports is still an acknowledgement — folding it
		// into lastAcked makes verifyRecovery enforce, for every crash
		// image, that no-op acks only ever vouch for durable epochs.
		if res := e.Delete(geom.Points{Data: []float64{500, 500}, Dim: 2}); res.Err == nil && res.Epoch > lastAcked {
			lastAcked = res.Epoch
		}
	}
	return lastAcked
}

// verifyRecovery opens the crash image, checks the recovered epoch
// against the acked/submitted window, and compares the live set with
// the oracle state for that epoch. When cont is set it additionally
// commits one batch on the recovered engine and reopens once more, so
// the log chain continued from a recovered epoch is itself validated.
func verifyRecovery(t *testing.T, img *wal.MemFS, states [][]string, lastAcked uint64, label string, cont bool) {
	t.Helper()
	re, err := Open(2, crashScriptOpts(img))
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	epoch := re.Epoch()
	if epoch < lastAcked || epoch > lastAcked+1 {
		t.Fatalf("%s: recovered epoch %d outside [%d, %d]", label, epoch, lastAcked, lastAcked+1)
	}
	if int(epoch) >= len(states) {
		t.Fatalf("%s: recovered epoch %d beyond script (%d states)", label, epoch, len(states))
	}
	diffStates(t, label, engineState(re), states[epoch])
	if cont {
		res := re.Insert(geom.Points{Data: []float64{-5, -5, 105, 105}, Dim: 2})
		if res.Err != nil {
			t.Fatalf("%s: post-recovery insert: %v", label, res.Err)
		}
		want := engineState(re)
		wantEpoch := re.Epoch()
		if err := re.Close(); err != nil {
			t.Fatalf("%s: close after recovery: %v", label, err)
		}
		re2, err := Open(2, crashScriptOpts(img))
		if err != nil {
			t.Fatalf("%s: second recovery: %v", label, err)
		}
		if got := re2.Epoch(); got != wantEpoch {
			t.Fatalf("%s: second recovery epoch %d, want %d", label, got, wantEpoch)
		}
		diffStates(t, label+" (second recovery)", engineState(re2), want)
		re2.Close()
		return
	}
	re.Close()
}

func TestCrashRecoveryMatrix(t *testing.T) {
	steps, states := buildCrashScript()

	// Probe run: no crash. Counts the fault-injection space and proves
	// the workload covers the interesting boundaries (≥2 segment
	// rotations, checkpoints with pruning) rather than vacuously passing.
	probe := wal.NewMemFS()
	if got, want := runCrashScript(probe, steps), uint64(len(states)-1); got != want {
		t.Fatalf("probe run acked epoch %d, want %d", got, want)
	}
	total := probe.Ops()
	names, err := probe.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	maxSeq, ckpts := 0, 0
	for _, n := range names {
		if strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ckpt") {
			ckpts++
		}
		var seq int
		if _, err := fmt.Sscanf(n, "wal-%016x.seg", &seq); err == nil && seq > maxSeq {
			maxSeq = seq
		}
	}
	if maxSeq < 3 {
		t.Fatalf("workload produced only %d segments; need ≥3 so the matrix covers rotations", maxSeq)
	}
	if ckpts == 0 {
		t.Fatal("workload left no checkpoint; matrix would not cover checkpoint crash points")
	}
	if total < 30 {
		t.Fatalf("only %d fault-injection points; workload too small to be meaningful", total)
	}

	stride := 1
	if testing.Short() {
		stride = 3
	}
	cells := 0
	for n := 1; n <= total; n += stride {
		for _, torn := range []bool{false, true} {
			fs := wal.NewMemFS()
			fs.SetCrash(n, torn)
			acked := runCrashScript(fs, steps)
			for _, drop := range []bool{false, true} {
				label := fmt.Sprintf("op %d/%d torn=%v drop=%v", n, total, torn, drop)
				verifyRecovery(t, fs.CrashImage(drop), states, acked, label, n%5 == 0)
				cells++
			}
		}
	}
	t.Logf("crash matrix: %d cells over %d fault points (%d segments, stride %d)", cells, total, maxSeq, stride)
}

// TestCrashRecoveryStress: randomized kill points under CONCURRENT
// writers with automatic checkpoints on — the non-deterministic companion to the exhaustive single-threaded matrix.
// Each writer tags its points with (writer, seq) in the coordinates;
// after recovery every acknowledged point must be present (SyncEvery=1:
// ack ⇒ fsynced ⇒ survives either reboot image) and every recovered
// point must have been submitted. Run via PARGEO_STRESS=1 (nightly CI,
// -race).
func TestCrashRecoveryStress(t *testing.T) {
	if os.Getenv("PARGEO_STRESS") == "" {
		t.Skip("set PARGEO_STRESS=1 to run crash-recovery stress")
	}
	rounds := 30
	if testing.Short() {
		rounds = 5
	}
	const writers = 6
	for round := 0; round < rounds; round++ {
		seed := int64(round)
		rng := rand.New(rand.NewSource(seed))
		fs := wal.NewMemFS()
		opts := crashScriptOpts(fs)
		opts.Durability.CheckpointEvery = 8
		e, err := Open(2, opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Arm the crash somewhere inside the workload's op range.
		fs.SetCrash(10+rng.Intn(400), rng.Intn(2) == 0)

		type wstate struct {
			submitted int
			acked     map[int]int32 // seq -> id
		}
		ws := make([]wstate, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			w := w
			ws[w].acked = map[int]int32{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := 0; seq < 200; seq++ {
					// Coordinates encode (writer, seq) exactly.
					p := geom.Points{Data: []float64{float64(w*1000 + seq), float64(seq)}, Dim: 2}
					ws[w].submitted = seq + 1
					res := e.Insert(p)
					if res.Err != nil {
						return
					}
					ws[w].acked[seq] = res.IDs[0]
				}
			}()
		}
		wg.Wait()
		e.Close() //nolint:errcheck // post-crash close error is expected

		img := fs.CrashImage(rng.Intn(2) == 0)
		re, err := Open(2, crashScriptOpts(img))
		if err != nil {
			t.Fatalf("round %d: recovery failed: %v", round, err)
		}
		pts, ids := re.Snapshot().Points()
		seenID := map[int32]bool{}
		recovered := map[int]bool{} // w*1000+seq
		for i, id := range ids {
			if seenID[id] {
				t.Fatalf("round %d: duplicate id %d after recovery", round, id)
			}
			seenID[id] = true
			c := pts.At(i)
			w, seq := int(c[0])/1000, int(c[1])
			if w < 0 || w >= writers || seq >= ws[w].submitted {
				t.Fatalf("round %d: recovered point %v was never submitted", round, c)
			}
			recovered[w*1000+seq] = true
		}
		for w := range ws {
			for seq, id := range ws[w].acked {
				if !recovered[w*1000+seq] {
					t.Fatalf("round %d: writer %d seq %d (id %d) was acked but lost", round, w, seq, id)
				}
			}
		}
		re.Close()
	}
}
