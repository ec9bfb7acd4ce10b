package server_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pargeo/client"
	"pargeo/internal/engine"
	"pargeo/internal/geom"
	"pargeo/internal/oracle"
	"pargeo/internal/server"
	"pargeo/internal/wal"
)

// startServer spins up an engine + server on a loopback listener and
// returns them with the dial address. The caller owns shutdown order.
func startServer(t *testing.T, dim int, opts engine.Options) (*engine.Engine, *server.Server, string) {
	t.Helper()
	eng, err := engine.Open(dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	srv := server.New(eng, dim, ln)
	go srv.Serve() //nolint:errcheck // exits nil on Shutdown
	return eng, srv, ln.Addr().String()
}

func sortedIDs(ids []int32) []int32 {
	out := append([]int32{}, ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestLoopbackDifferential drives the facade's behaviors through the
// network stack and checks every answer against the same engine asked
// directly — the wire must be a transparent transport, including the
// engine-edge cases: the pre-founding Delete's zero-value UpdateResult
// must round-trip as exactly that, not as an error or a mangled result.
func TestLoopbackDifferential(t *testing.T) {
	fs := wal.NewMemFS()
	eng, srv, addr := startServer(t, 2, engine.Options{
		Shards:     4,
		Durability: &engine.Durability{Dir: "db", FS: fs, SyncEvery: 1},
	})
	defer func() { srv.Shutdown(); eng.Close() }()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Dim() != 2 || c.Shards() != 4 {
		t.Fatalf("handshake: dim=%d shards=%d, want 2, 4", c.Dim(), c.Shards())
	}

	// Pre-founding, a delete matches nothing: the zero-value UpdateResult
	// (no ids, nothing deleted, epoch 0, no error) must survive the wire.
	res := c.Delete(geom.Points{Data: []float64{7, 7}, Dim: 2})
	if res.Err != nil || res.Deleted != 0 || len(res.IDs) != 0 || res.Epoch != 0 {
		t.Fatalf("pre-founding delete over the wire: %+v, want zero-value result", res)
	}

	// Founding insert, then a mixed workload mirrored through both paths.
	rng := rand.New(rand.NewSource(11))
	seed := geom.NewPoints(256, 2)
	for i := 0; i < seed.Len(); i++ {
		seed.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	res = c.Insert(seed)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.IDs) != seed.Len() {
		t.Fatalf("insert assigned %d ids for %d rows", len(res.IDs), seed.Len())
	}
	if got := c.Update(geom.Points{Dim: 2}, geom.Points{Data: seed.At(0), Dim: 2}); got.Err != nil || got.Deleted != 1 {
		t.Fatalf("delete of live point: %+v", got)
	}

	// Every query class: remote answer == direct engine answer.
	for i := 0; i < 20; i++ {
		q := []float64{rng.Float64() * 100, rng.Float64() * 100}
		k := 1 + rng.Intn(8)
		remote, err := c.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if direct := eng.KNN(q, k); !reflect.DeepEqual(remote, direct) {
			t.Fatalf("KNN(%v, %d): remote %v, direct %v", q, k, remote, direct)
		}
		lo := []float64{rng.Float64() * 50, rng.Float64() * 50}
		box := geom.Box{Min: lo, Max: []float64{lo[0] + 25, lo[1] + 25}}
		remoteIDs, err := c.RangeSearch(box)
		if err != nil {
			t.Fatal(err)
		}
		if direct := eng.RangeSearch(box); !reflect.DeepEqual(sortedIDs(remoteIDs), sortedIDs(direct)) {
			t.Fatalf("RangeSearch(%v): remote %v, direct %v", box, remoteIDs, direct)
		}
		n, err := c.RangeCount(box)
		if err != nil {
			t.Fatal(err)
		}
		if direct := eng.RangeCount(box); n != direct {
			t.Fatalf("RangeCount(%v): remote %d, direct %d", box, n, direct)
		}
	}

	// Multi-query batch path.
	queries := geom.NewPoints(16, 2)
	for i := 0; i < queries.Len(); i++ {
		queries.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	remote, err := c.KNNBatch(queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	if direct := eng.Snapshot().KNN(queries, 3); !reflect.DeepEqual(remote, direct) {
		t.Fatalf("KNNBatch: remote %v, direct %v", remote, direct)
	}

	// Admin surface.
	if ep, err := c.Epoch(); err != nil || ep != eng.Epoch() {
		t.Fatalf("Epoch: %d, %v; engine at %d", ep, err, eng.Epoch())
	}
	if ep, err := c.Checkpoint(); err != nil || ep != eng.Epoch() {
		t.Fatalf("Checkpoint: %d, %v; engine at %d", ep, err, eng.Epoch())
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["size"] != uint64(eng.Size()) || st["shards"] != 4 || st["requests"] == 0 {
		t.Fatalf("stats: %v (engine size %d)", st, eng.Size())
	}

	// Client-side validation is typed and local: no request is sent.
	if _, err := c.KNN([]float64{1, 2, 3}, 2); err == nil {
		t.Fatal("dim-mismatched KNN accepted")
	}
	if _, err := c.KNN([]float64{1, 2}, 0); err == nil {
		t.Fatal("k=0 KNN accepted")
	}
}

// TestHugeKOverWire: the server rejects only k < 1, so a single OpKNN
// frame can ask for k = MaxInt32. The engine clamps k to the snapshot it
// answers from before sizing anything by it; unclamped, the 16 GB buffer
// aborts the daemon. Live, batch and as-of reads must each return the
// whole 100-point set in the oracle's distance order.
func TestHugeKOverWire(t *testing.T) {
	eng, srv, addr := startServer(t, 2, engine.Options{Shards: 2, RetainEpochs: 4})
	defer func() { srv.Shutdown(); eng.Close() }()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(13))
	pts := geom.NewPoints(100, 2)
	for i := 0; i < pts.Len(); i++ {
		pts.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	res := c.Insert(pts)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	row := make(map[int32]int, len(res.IDs))
	for i, id := range res.IDs {
		row[id] = i
	}
	q := []float64{40, 60}
	wantD := oracle.KNNDists(pts, q, pts.Len(), -1)
	check := func(name string, got []int32, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != pts.Len() {
			t.Fatalf("%s: %d ids, want all %d", name, len(got), pts.Len())
		}
		for j, id := range got {
			if d := geom.SqDist(q, pts.At(row[id])); d != wantD[j] {
				t.Fatalf("%s: dist[%d]=%v, oracle %v", name, j, d, wantD[j])
			}
		}
	}
	got, err := c.KNN(q, math.MaxInt32)
	check("KNN", got, err)
	got, err = c.KNNAsOf(q, math.MaxInt32, res.Epoch)
	check("KNNAsOf", got, err)
	batch, err := c.KNNBatch(geom.Points{Data: []float64{q[0], q[1], q[0], q[1]}, Dim: 2}, math.MaxInt32)
	if err != nil || len(batch) != 2 {
		t.Fatalf("KNNBatch: %d rows, err %v; want 2 rows", len(batch), err)
	}
	check("KNNBatch row 0", batch[0], nil)
	check("KNNBatch row 1", batch[1], nil)
}

// TestBatchedCallsCorrect hammers the client's combiner: concurrent solo
// KNNs (mergeable by k) and pure inserts (mergeable) from many
// goroutines must each get exactly their own answer back, and the
// merged inserts must hand out disjoint id spans.
func TestBatchedCallsCorrect(t *testing.T) {
	eng, srv, addr := startServer(t, 2, engine.Options{Shards: 4})
	defer func() { srv.Shutdown(); eng.Close() }()
	if res := eng.Insert(geom.Points{Data: []float64{0, 0, 100, 100, 50, 50, 25, 75}, Dim: 2}); res.Err != nil {
		t.Fatal(res.Err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers = 24
	var wg sync.WaitGroup
	idCh := make(chan []int32, callers)
	errCh := make(chan error, 2*callers)
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			q := []float64{rng.Float64() * 100, rng.Float64() * 100}
			before := eng.Epoch()
			ids, err := c.KNN(q, 2)
			if err != nil {
				errCh <- err
				return
			}
			direct := eng.KNN(q, 2)
			// The direct oracle races the other callers' inserts: it runs
			// on whatever snapshot is current NOW, while the server
			// answered on the snapshot current THEN. Only an unchanged
			// epoch across the whole exchange proves both saw the same
			// tree; otherwise a commit landed in between and a mismatch
			// means nothing.
			if eng.Epoch() == before && !reflect.DeepEqual(ids, direct) {
				errCh <- fmt.Errorf("caller %d: KNN %v: got %v, want %v", g, q, ids, direct)
			}
			rows := 1 + g%3
			batch := geom.NewPoints(rows, 2)
			for i := 0; i < rows; i++ {
				batch.Set(i, []float64{rng.Float64() * 100, rng.Float64() * 100})
			}
			res := c.Insert(batch)
			if res.Err != nil {
				errCh <- res.Err
				return
			}
			if len(res.IDs) != rows {
				errCh <- fmt.Errorf("caller %d: %d ids for %d rows", g, len(res.IDs), rows)
				return
			}
			idCh <- res.IDs
		}()
	}
	wg.Wait()
	close(errCh)
	close(idCh)
	for err := range errCh {
		t.Error(err)
	}
	seen := map[int32]bool{}
	for ids := range idCh {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("id %d assigned to two callers: merged insert mis-split", id)
			}
			seen[id] = true
		}
	}
}

// TestShutdownDrains closes the server out from under a storm of
// writers: every call must resolve promptly as either a success or a
// typed closed error, and — because the drain completes before the
// engine closes — every success must be recovered from the WAL.
func TestShutdownDrains(t *testing.T) {
	fs := wal.NewMemFS()
	opts := engine.Options{
		Shards:     4,
		Durability: &engine.Durability{Dir: "db", FS: fs, SyncEvery: 1},
	}
	eng, srv, addr := startServer(t, 2, opts)
	if res := eng.Insert(geom.Points{Data: []float64{0, 0, 100, 100}, Dim: 2}); res.Err != nil {
		t.Fatal(res.Err)
	}

	const writers = 8
	var mu sync.Mutex
	acked := map[int32][]float64{}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			<-start
			for i := 0; ; i++ {
				p := []float64{rng.Float64() * 100, rng.Float64() * 100}
				res := c.Insert(geom.Points{Data: p, Dim: 2})
				if res.Err != nil {
					if !errors.Is(res.Err, client.ErrEngineClosed) && !errors.Is(res.Err, client.ErrConnClosed) {
						t.Errorf("writer %d: untyped shutdown error: %v", w, res.Err)
					}
					return
				}
				mu.Lock()
				acked[res.IDs[0]] = p
				mu.Unlock()
			}
		}()
	}
	close(start)
	// Let the storm build, then pull the plug mid-flight.
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 50 {
			break
		}
	}
	srv.Shutdown()
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := engine.Open(2, engine.Options{
		Shards:     4,
		Durability: &engine.Durability{Dir: "db", FS: fs, SyncEvery: 1},
	})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	_, ids := re.Snapshot().Points()
	live := map[int32]bool{}
	for _, id := range ids {
		live[id] = true
	}
	mu.Lock()
	defer mu.Unlock()
	for id := range acked {
		if !live[id] {
			t.Fatalf("id %d acknowledged through the wire but lost across shutdown", id)
		}
	}
	t.Logf("drained shutdown preserved all %d acked inserts", len(acked))
}

// TestClosedEngineTyped: an engine closed under a live server must
// surface as the TYPED closed error through the wire — errors.Is against
// client.ErrEngineClosed, never a string match.
func TestClosedEngineTyped(t *testing.T) {
	fs := wal.NewMemFS()
	eng, srv, addr := startServer(t, 2, engine.Options{
		Shards:     2,
		Durability: &engine.Durability{Dir: "db", FS: fs, SyncEvery: 1},
	})
	defer srv.Shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if res := c.Insert(geom.Points{Data: []float64{1, 1}, Dim: 2}); res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	res := c.Insert(geom.Points{Data: []float64{2, 2}, Dim: 2})
	if !errors.Is(res.Err, client.ErrEngineClosed) {
		t.Fatalf("insert on closed engine: %v, want ErrEngineClosed", res.Err)
	}
	var remote *client.RemoteError
	if errors.As(res.Err, &remote) {
		t.Fatalf("closed engine surfaced as untyped RemoteError: %v", res.Err)
	}
}
