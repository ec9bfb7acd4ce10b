package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"pargeo/internal/generators"
	"pargeo/internal/geom"
)

// TestWriteGroupForms pins the write combiner's reason to exist: updates
// that arrive at a shard while its commit is in flight park, and the next
// leader commits all of them as ONE group — one publish, one epoch — while
// each request still reports its own ids and its own deletion count. The
// stall is deterministic: the test holds the shard's commit lock, so the
// first update's leader blocks mid-commit and the next three park behind
// it.
func TestWriteGroupForms(t *testing.T) {
	e := New(2, Options{Shards: 2})
	defer e.Close()
	// Founding commit: a real partition so updates route per shard.
	seed := generators.UniformCube(512, 2, 7)
	if res := e.Insert(seed); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Pick the stall shard from the live partition, an insert point on it,
	// and two seed points on it to delete.
	part := e.part.Load()
	p := make([]float64, 2)
	for i := range p {
		p[i] = part.world.Min[i] + 0.25*(part.world.Max[i]-part.world.Min[i])
	}
	s := part.shardOf(p)
	var onShard [][]float64
	for i := 0; i < seed.Len() && len(onShard) < 2; i++ {
		if part.shardOf(seed.At(i)) == s {
			onShard = append(onShard, seed.At(i))
		}
	}
	if len(onShard) < 2 {
		t.Fatal("fewer than two seed points on the stalled shard")
	}
	pts := func(rows ...[]float64) geom.Points {
		out := geom.Points{Dim: 2}
		for _, r := range rows {
			out.Data = append(out.Data, r...)
		}
		return out
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

	// A leads and blocks committing; B, C and D park behind it in order.
	updates := []struct{ ins, del geom.Points }{
		{pts(p), pts()},              // A
		{pts(p), pts()},              // B
		{pts(p, p), pts(onShard[0])}, // C
		{pts(), pts(onShard[1])},     // D
	}
	commits := e.Stats().Commits
	results := make([]UpdateResult, len(updates))
	var wg sync.WaitGroup
	e.shards[s].commitMu.Lock()
	for i, u := range updates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = e.Update(u.ins, u.del)
		}()
		if i == 0 {
			await("leader to start committing", func() bool { a, n := pending(); return a && n == 0 })
		} else {
			await("update to park", func() bool { _, n := pending(); return n == i })
		}
	}
	e.shards[s].commitMu.Unlock()
	wg.Wait()

	if got := e.Stats().Commits - commits; got != 2 {
		t.Fatalf("%d commits for a leader and three parked updates, want 2 (A alone, then B+C+D)", got)
	}
	a, b, c, d := results[0], results[1], results[2], results[3]
	if b.Epoch != c.Epoch || c.Epoch != d.Epoch || b.Epoch <= a.Epoch {
		t.Fatalf("epochs A=%d B=%d C=%d D=%d, want B=C=D > A", a.Epoch, b.Epoch, c.Epoch, d.Epoch)
	}
	want := []struct{ ids, deleted int }{{1, 0}, {1, 0}, {2, 1}, {0, 1}}
	seen := map[int32]bool{}
	for i, r := range results {
		if r.Err != nil || len(r.IDs) != want[i].ids || r.Deleted != want[i].deleted {
			t.Fatalf("update %c: %d ids, %d deleted, err %v; want %d ids, %d deleted",
				'A'+i, len(r.IDs), r.Deleted, r.Err, want[i].ids, want[i].deleted)
		}
		for _, id := range r.IDs {
			if seen[id] {
				t.Fatalf("id %d reported twice", id)
			}
			seen[id] = true
		}
	}
	if got, want := e.Size(), 512+4-2; got != want {
		t.Fatalf("live %d points, want %d", got, want)
	}
}
