// Serving: drive the Morton-sharded concurrent spatial query engine over
// the NETWORK — the same courier-fleet workload the engine was built for,
// now crossing a real TCP connection through the wire protocol. A durable
// engine is served on a loopback listener (exactly what the pargeo-serve
// daemon does for external processes); a fleet of couriers streams
// position updates through client connections while concurrent query
// clients ask "which couriers are nearest me?" and "how many couriers are
// in this district?" through a single shared batching client — their
// concurrent calls coalesce into merged wire requests on the way out.
// Movers working different districts commit on different shards truly in
// parallel (each mover dials its own connection, and the server runs each
// connection's requests on that connection's own goroutine, so the
// engine's commit path sees the movers concurrently), a
// straddling batch still publishes all-or-nothing, and every query reads
// a fully committed snapshot. At the end the service "restarts": the
// server drains in-flight requests, the engine closes and reopens from
// its directory, and a fresh client sees the whole fleet at the exact
// epoch it left off.
package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pargeo"
	"pargeo/client"
	"pargeo/internal/server"
)

func main() {
	const (
		dim      = 2
		couriers = 20000 // fleet size
		movers   = 4     // connections streaming position updates, one per district
		clients  = 8     // goroutines issuing queries through one shared connection
		moveB    = 1000  // couriers re-positioned per update batch
		rounds   = 10    // update batches per mover
	)

	// The engine is durable, as in embedded use: every commit is written
	// ahead to the segmented log (SyncEvery=64 acks immediately, fsyncs
	// every 64 commits — prefix durability, right for a fleet tracker).
	dir, err := os.MkdirTemp("", "pargeo-serving-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	opts := pargeo.EngineOptions{
		Shards:     movers,
		Durability: &pargeo.Durability{SyncEvery: 64},
	}
	e, err := pargeo.OpenEngine(dir, dim, opts)
	if err != nil {
		panic(err)
	}

	// Serve it. cmd/pargeo-serve wraps exactly this pair — engine plus
	// wire-protocol server — behind flags and signal handling; here the
	// server runs in-process on a loopback listener so the example is one
	// binary, but every request below genuinely crosses TCP.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := server.New(e, dim, ln)
	go srv.Serve() //nolint:errcheck // exits nil on Shutdown
	addr := ln.Addr().String()

	dial := func() *client.Client {
		c, err := client.Dial(addr)
		if err != nil {
			panic(err)
		}
		return c
	}

	// Seed the fleet through the wire. The founding insertion fixes the
	// initial shard boundaries: Morton quantiles of a uniform city are
	// close to its quadrants, so each mover's district below lives mostly
	// in its own shard and the movers' commit streams rarely contend.
	seedConn := dial()
	fleet := pargeo.Uniform(couriers, dim, 1)
	res := seedConn.Insert(fleet)
	if res.Err != nil {
		panic(res.Err)
	}
	city := pargeo.BoundingBox(fleet)
	fmt.Printf("fleet of %d couriers live at epoch %d, served on %s (dim=%d, %d shards)\n",
		e.Size(), res.Epoch, addr, seedConn.Dim(), seedConn.Shards())

	var queries, updates atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()

	// Each mover owns one quadrant district and its own connection (a
	// real fleet's regional feeder would be its own process): it
	// repeatedly picks a block of its district's couriers and moves them
	// to fresh positions inside the district — old positions out, new
	// positions in, one atomic commit per wire request.
	midX := (city.Min[0] + city.Max[0]) / 2
	midY := (city.Min[1] + city.Max[1]) / 2
	district := func(m int) pargeo.Box {
		b := pargeo.Box{Min: append([]float64(nil), city.Min...), Max: append([]float64(nil), city.Max...)}
		if m%2 == 0 {
			b.Max[0] = midX
		} else {
			b.Min[0] = midX
		}
		if m/2 == 0 {
			b.Max[1] = midY
		} else {
			b.Min[1] = midY
		}
		return b
	}
	for m := 0; m < movers; m++ {
		m := m
		c := dial()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			d := district(m)
			w := []float64{d.Max[0] - d.Min[0], d.Max[1] - d.Min[1]}
			// The mover's block of the original fleet goes out with its
			// first commit and comes back with its last, so the fleet size
			// is unchanged once the run settles.
			home := fleet.Slice(m*moveB, (m+1)*moveB)
			cur := home
			for r := 0; r < rounds; r++ {
				// Uniform's extent depends on its n; rescale by the batch's
				// own bounding box so positions cover the whole district.
				moved := pargeo.Uniform(moveB, dim, uint64(m*rounds+r)+100)
				mb := pargeo.BoundingBox(moved)
				for i := 0; i < moved.Len(); i++ {
					p := moved.At(i)
					p[0] = d.Min[0] + (p[0]-mb.Min[0])/(mb.Max[0]-mb.Min[0])*w[0]
					p[1] = d.Min[1] + (p[1]-mb.Min[1])/(mb.Max[1]-mb.Min[1])*w[1]
				}
				if res := c.Update(moved, cur); res.Err != nil { // block out, block in, one commit
					panic(res.Err)
				}
				cur = moved
				updates.Add(1)
			}
			if res := c.Update(home, cur); res.Err != nil {
				panic(res.Err)
			}
			updates.Add(1)
		}()
	}

	// The expansion mover: the city grows. One block of couriers is
	// progressively relocated into a brand-new district east of the
	// founding city limits — outside the world box the partition was
	// founded on. The partition stays as founded: these updates clamp into
	// boundary Morton cells and land on the edge shards, whose cell
	// geometry covers clamped points, so every query still finds them.
	// The block comes home with the final commit.
	expConn := dial()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer expConn.Close()
		width := city.Max[0] - city.Min[0]
		home := fleet.Slice(movers*moveB, (movers+1)*moveB)
		cur := home
		for r := 0; r < rounds; r++ {
			moved := pargeo.Uniform(moveB, dim, uint64(1000+r))
			mb := pargeo.BoundingBox(moved)
			for i := 0; i < moved.Len(); i++ {
				p := moved.At(i)
				// East of the city: x beyond the founding maximum.
				p[0] = city.Max[0] + width/4 + (p[0]-mb.Min[0])/(mb.Max[0]-mb.Min[0])*width/2
				p[1] = city.Min[1] + (p[1]-mb.Min[1])/(mb.Max[1]-mb.Min[1])*(city.Max[1]-city.Min[1])
			}
			if res := expConn.Update(moved, cur); res.Err != nil {
				panic(res.Err)
			}
			cur = moved
			updates.Add(1)
		}
		if res := expConn.Update(home, cur); res.Err != nil {
			panic(res.Err)
		}
		updates.Add(1)
	}()

	// The query clients SHARE one connection: its batching combiner
	// merges their concurrent k-NN calls into multi-query wire requests
	// (the round trip is the combining window), so eight goroutines cost
	// the server far fewer than eight requests per beat.
	queryConn := dial()
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			probes := pargeo.Uniform(64, dim, uint64(c)+500)
			for i := 0; !stop.Load(); i = (i + 1) % probes.Len() {
				q := probes.At(i)
				// Nearest 3 couriers to this client.
				near, err := queryConn.KNN(q, 3)
				if err != nil {
					panic(err)
				}
				// District load: couriers within a 10x10 box, answered on
				// the same engine concurrently with the k-NN traffic.
				load := pargeo.Box{
					Min: []float64{q[0] - 5, q[1] - 5},
					Max: []float64{q[0] + 5, q[1] + 5},
				}
				n, err := queryConn.RangeCount(load)
				if err != nil {
					panic(err)
				}
				if len(near) != 3 || n < 0 {
					panic("serving: impossible answer")
				}
				queries.Add(2)
			}
		}()
	}

	// Movers run a fixed workload; clients stream until the fleet settles.
	go func() {
		for updates.Load() < int64((movers+1)*(rounds+1)) {
			time.Sleep(time.Millisecond)
		}
		stop.Store(true)
	}()
	wg.Wait()
	elapsed := time.Since(start)

	st, err := queryConn.Stats()
	if err != nil {
		panic(err)
	}
	fmt.Printf("final epoch %d, fleet size %d\n", st["epoch"], st["size"])
	fmt.Printf("%d client queries and %d update batches in %v (%.0f queries/s)\n",
		queries.Load(), updates.Load(), elapsed.Round(time.Millisecond),
		float64(queries.Load())/elapsed.Seconds())
	fmt.Printf("served over %d wire requests (%d engine queries)\n",
		st["requests"], st["queries"])
	if st["size"] != couriers {
		panic("serving: fleet size drifted")
	}

	// Restart: checkpoint through the wire (recovery then loads a
	// snapshot instead of replaying the whole run's log), remember one
	// answer, and take the service down the way the daemon does on
	// SIGTERM — drain in-flight requests, then close the engine, which
	// fsyncs the log tail so nothing acknowledged is lost even in relaxed
	// SyncEvery mode.
	if _, err := queryConn.Checkpoint(); err != nil {
		panic(err)
	}
	probe := fleet.At(0)
	before, err := queryConn.KNN(probe, 3)
	if err != nil {
		panic(err)
	}
	seedConn.Close()
	queryConn.Close()
	srv.Shutdown()
	if err := e.Close(); err != nil {
		panic(err)
	}
	// The engine is closed, so the epoch is final now.
	finalEpoch := e.Epoch()

	// Reopen the directory and serve it again: same state, same epoch,
	// same answers, through a brand-new connection.
	re, err := pargeo.OpenEngine(dir, dim, opts)
	if err != nil {
		panic(err)
	}
	defer re.Close()
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv2 := server.New(re, dim, ln2)
	go srv2.Serve() //nolint:errcheck // exits nil on Shutdown
	defer srv2.Shutdown()
	c2, err := client.Dial(ln2.Addr().String())
	if err != nil {
		panic(err)
	}
	defer c2.Close()
	ep, err := c2.Epoch()
	if err != nil {
		panic(err)
	}
	fmt.Printf("restarted from %s: epoch %d, fleet size %d\n", dir, ep, re.Size())
	if ep != finalEpoch || re.Size() != couriers {
		panic("serving: restart lost state")
	}
	after, err := c2.KNN(probe, 3)
	if err != nil {
		panic(err)
	}
	for i := range before {
		if before[i] != after[i] {
			panic("serving: restart changed an answer")
		}
	}
}
