// Command pargeo-serve is the engine daemon: it opens (or recovers) a
// durable sharded engine and serves it over TCP with the wire protocol
// (internal/wire), answered by the client package. SIGTERM/SIGINT shut
// it down gracefully — the accept loop stops, in-flight requests drain
// to completion with their responses flushed, and only then does the
// engine close (flushing the WAL tail), so every acknowledged update is
// covered by the durability contract across a restart.
//
// -max-reads/-max-writes/-max-control bound the in-flight requests per
// admission class, the daemon's only admission layer: load past a budget
// is shed immediately with a typed StatusOverloaded response carrying a
// retry-after hint (see internal/server). All default to unlimited.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"pargeo/internal/engine"
	"pargeo/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7979", "listen address")
		dir       = flag.String("dir", "", "durability directory (WAL + checkpoints); empty runs in-memory")
		dim       = flag.Int("dim", 2, "point dimensionality (fixed for the engine's lifetime)")
		shards    = flag.Int("shards", engine.AutoShards, "shard count (-1 = one per GOMAXPROCS worker)")
		syncEvery = flag.Int("sync-every", 1, "fsync cadence: 1 = every commit (strict), K>1 = group of K (relaxed)")
		ckptEvery = flag.Int("checkpoint-every", 4096, "automatic checkpoint after N WAL records (0 = manual only)")
		rebalance = flag.Bool("rebalance", true, "run the online shard rebalancer")
		retain    = flag.Int("retain", 0, "MVCC retention window: keep the last N epochs answerable via as-of reads (0 = live only; pins work regardless)")

		// Overload control: finite budgets shed excess load with a typed
		// StatusOverloaded + retry hint instead of queueing it (0 = unlimited).
		maxReads   = flag.Int("max-reads", 0, "max in-flight read requests (KNN/range) before shedding; 0 = unlimited")
		maxWrites  = flag.Int("max-writes", 0, "max in-flight update requests before shedding; 0 = unlimited")
		maxControl = flag.Int("max-control", 0, "max in-flight control requests (epoch/checkpoint/stats) before shedding; 0 = unlimited")
	)
	flag.Parse()
	log.SetPrefix("pargeo-serve: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	lim := server.Limits{Reads: *maxReads, Writes: *maxWrites, Control: *maxControl}
	if err := run(*addr, *dir, *dim, *shards, *syncEvery, *ckptEvery, *rebalance, *retain, lim); err != nil {
		log.Fatal(err)
	}
}

func run(addr, dir string, dim, shards, syncEvery, ckptEvery int, rebalance bool, retain int, lim server.Limits) error {
	opts := engine.Options{Shards: shards, Rebalance: rebalance, RetainEpochs: retain}
	if dir != "" {
		opts.Durability = &engine.Durability{
			Dir:             dir,
			SyncEvery:       syncEvery,
			CheckpointEvery: ckptEvery,
		}
	}
	eng, err := engine.Open(dim, opts)
	if err != nil {
		return fmt.Errorf("open engine: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		eng.Close()
		return err
	}
	srv := server.NewWithLimits(eng, dim, ln, lim)
	st := eng.Stats()
	log.Printf("listening on %s (dim=%d shards=%d epoch=%d size=%d durable=%v limits=reads:%d,writes:%d,control:%d)",
		ln.Addr(), dim, eng.Shards(), st.Epoch, st.Size, dir != "", lim.Reads, lim.Writes, lim.Control)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("%v: draining in-flight requests", s)
		srv.Shutdown()
	}()

	if err := srv.Serve(); err != nil {
		// Listener failure, not shutdown: still drain what's in flight
		// and close the engine cleanly before reporting it.
		srv.Shutdown()
		eng.Close()
		return fmt.Errorf("serve: %w", err)
	}
	srv.Shutdown() // idempotent: waits for the signal handler's drain
	st = eng.Stats()
	if err := eng.Close(); err != nil {
		return fmt.Errorf("close engine: %w", err)
	}
	log.Printf("shut down at epoch %d (size=%d, %d updates, %d queries served)",
		st.Epoch, st.Size, st.Updates, st.Queries)
	return nil
}
