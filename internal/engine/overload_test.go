package engine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

// TestMaxPendingSheds fills a bounded commit queue deterministically by
// stalling one shard's commit lock: a leader blocks mid-commit, one
// waiter parks (the single MaxPending=1 slot), and the next arrival must
// be shed with the typed ErrOverloaded — immediately, without blocking —
// while other shards keep admitting, everything admitted commits
// normally, and nothing shed leaves any trace in the live set.
func TestMaxPendingSheds(t *testing.T) {
	e := New(2, Options{Shards: 2, MaxPending: 1})
	defer e.Close()
	// Founding commit: a real partition so updates route per shard.
	if res := e.Insert(generators.UniformCube(512, 2, 7)); res.Err != nil {
		t.Fatal(res.Err)
	}
	if st := e.Stats(); st.Commits != 1 {
		t.Fatalf("founding commit counted %d times, want 1", st.Commits)
	}
	// Pick the stall point and the control point from the live partition:
	// probe the world box's diagonal for two points on different shards.
	part := e.part.Load()
	lerp := func(t float64) []float64 {
		w := part.world
		out := make([]float64, len(w.Min))
		for i := range out {
			out[i] = w.Min[i] + t*(w.Max[i]-w.Min[i])
		}
		return out
	}
	p := lerp(0.25)
	s := part.shardOf(p)
	var q []float64
	for t64 := 0.0; t64 <= 1.0; t64 += 1.0 / 64 {
		if cand := lerp(t64); part.shardOf(cand) != s {
			q = cand
			break
		}
	}
	if q == nil {
		t.Fatal("no probe point routed off the stalled shard")
	}
	comb := &e.shards[s].comb
	pending := func() (active bool, n int) {
		comb.mu.Lock()
		defer comb.mu.Unlock()
		return comb.active, len(comb.pending)
	}
	await := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			runtime.Gosched()
		}
	}
	ins := func(pt []float64) UpdateResult {
		return e.Insert(geom.Points{Data: pt, Dim: 2})
	}

	// Stall shard s's commit path, then stack the queue one step at a time.
	e.shards[s].commitMu.Lock()
	results := make(chan UpdateResult, 2)
	go func() { results <- ins(p) }() // A: leader, drains itself, blocks committing
	await("leader to start committing", func() bool { a, n := pending(); return a && n == 0 })
	go func() { results <- ins(p) }() // B: parks, fills the MaxPending=1 slot
	await("waiter to park", func() bool { _, n := pending(); return n == 1 })

	// C arrives at a full queue: shed synchronously, typed, no state.
	res := ins(p)
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("arrival at full queue: %+v, want ErrOverloaded", res)
	}
	if len(res.IDs) != 0 || res.Epoch != 0 || res.Deleted != 0 {
		t.Fatalf("shed result carries state: %+v", res)
	}
	// The OTHER shard's queue is idle: admission is per stream, so load on
	// one shard must not shed writes bound elsewhere.
	if other := ins(q); other.Err != nil {
		t.Fatalf("insert on unloaded shard during stall: %v", other.Err)
	}
	if st := e.Stats(); st.Shed != 1 || st.CommitQueue != 1 {
		t.Fatalf("mid-stall stats: shed=%d queue=%d, want 1, 1", st.Shed, st.CommitQueue)
	}

	// Release the stall: A and B both commit and acknowledge.
	e.shards[s].commitMu.Unlock()
	var acked []int32
	for i := 0; i < 2; i++ {
		r := <-results
		if r.Err != nil {
			t.Fatalf("admitted update failed: %v", r.Err)
		}
		acked = append(acked, r.IDs...)
	}
	_, ids := e.Snapshot().Points()
	live := map[int32]bool{}
	for _, id := range ids {
		live[id] = true
	}
	for _, id := range acked {
		if !live[id] {
			t.Fatalf("acked id %d missing from live set", id)
		}
	}
	// 512 seed + A + B + the other-shard insert; C (shed) left no trace.
	if len(ids) != 512+3 {
		t.Fatalf("live %d points, want %d", len(ids), 512+3)
	}
	if st := e.Stats(); st.Shed != 1 || st.CommitQueue != 0 {
		t.Fatalf("drained stats: shed=%d queue=%d, want 1, 0", st.Shed, st.CommitQueue)
	}
	// Every state-changing publish is counted once — the founding commit,
	// A, B (its own group: it parked behind A) and the other-shard insert —
	// and a delete that matches nothing publishes nothing.
	if res := e.Delete(geom.Points{Data: []float64{1e9, 1e9}, Dim: 2}); res.Err != nil || res.Deleted != 0 {
		t.Fatalf("no-match delete: %+v", res)
	}
	if st := e.Stats(); st.Commits != 4 {
		t.Fatalf("commits=%d, want 4", st.Commits)
	}
}

// TestMaxPendingUnsetNeverSheds: the embedded-use default (MaxPending=0)
// must keep the pre-overload contract — no update is ever refused, no
// matter how many stack up.
func TestMaxPendingUnsetNeverSheds(t *testing.T) {
	e := New(2, Options{Shards: 2})
	defer e.Close()
	if res := e.Insert(generators.UniformCube(64, 2, 3)); res.Err != nil {
		t.Fatal(res.Err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := e.Insert(geom.Points{Data: []float64{0.5, float64(w)}, Dim: 2})
			if res.Err != nil {
				t.Errorf("writer %d refused: %v", w, res.Err)
			}
		}()
	}
	wg.Wait()
	if st := e.Stats(); st.Shed != 0 {
		t.Fatalf("unbounded engine shed %d updates", st.Shed)
	}
}

// TestCommitQueueGauge: the queue-depth gauge reflects parked updates
// while a commit is held open and returns to zero once drained.
func TestCommitQueueGauge(t *testing.T) {
	e := New(2, Options{})
	defer e.Close()
	if st := e.Stats(); st.CommitQueue != 0 {
		t.Fatalf("idle queue depth %d", st.CommitQueue)
	}
	// Park a wave of concurrent writers; sampled mid-flight the gauge must
	// be consistent with the bound [0, writers] and drain back to zero.
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Insert(geom.Points{Data: []float64{float64(w), 1}, Dim: 2})
		}()
	}
	if d := e.queueDepth(); d > 16 {
		t.Errorf("mid-flight queue depth %d > 16 writers", d)
	}
	wg.Wait()
	if st := e.Stats(); st.CommitQueue != 0 {
		t.Fatalf("drained queue depth %d, want 0", st.CommitQueue)
	}
}
