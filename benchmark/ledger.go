package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"pargeo/client"
	"pargeo/internal/bdltree"
	"pargeo/internal/engine"
	"pargeo/internal/geom"
	"pargeo/internal/kdtree"
	"pargeo/internal/kernel"
	"pargeo/internal/server"
	"pargeo/internal/wire"
)

// knnRungs is the read ledger, bottom to top. Each rung answers the same
// queries through one more layer than the rung below it.
var knnRungs = []rung{
	{name: "kernel.SqDistsF32"},          // one leaf-sized slab scan
	{name: "kdtree.KNNInto"},             // one static tree
	{name: "bdltree.KNNInto"},            // the log-structured tree over the same points
	{name: "Snapshot.KNNInto"},           // 4 shards, pinned snapshot, no combiner
	{name: "Engine.KNN"},                 // + read combiner and result allocation
	{name: "wire.codec", additive: true}, // request + response, encode + decode
	{name: "server.raw"},                 // hand-written frame over one loopback connection
	{name: "client.KNN"},                 // the client library, one caller
}

const engineRung = 4 // index of Engine.KNN in knnRungs

// timeEach times f(i) for each i in [0, n) and returns the median ns.
func timeEach(n int, f func(i int)) float64 {
	d := make([]float64, n)
	for i := range d {
		start := time.Now()
		f(i)
		d[i] = float64(time.Since(start))
	}
	return median(d)
}

// midmeanOf runs f reps times and returns the midmean seconds: the same
// estimator every repeated timing in the benchmark is reduced to.
func midmeanOf(reps int, f func()) float64 {
	t := make([]float64, reps)
	for i := range t {
		start := time.Now()
		f()
		t[i] = time.Since(start).Seconds()
	}
	return midmean(t)
}

// ledgerReads is the read ledger, the part of the traced run embed-read
// homes: the first ledgerQ queries of Q2, one caller, driven through every
// layer boundary in turn — from outside, by timing calls into the layers'
// public functions — from one kernel slab scan up to client.KNN over a
// loopback connection to an in-process server on the same kind of engine
// embed-read measures.
func ledgerReads(r *run, d2, q2 geom.Points) error {
	rec := r.rec
	ledger := rec.begin("ledger", 0)
	defer rec.end(ledger)
	ln := rec.lane()
	nq := min(r.sz.ledgerQ, q2.Len())

	// --- kernel ----------------------------------------------------------
	tree := kdtree.Build(d2, kdtree.Options{})
	type slab struct {
		cols []float32
		m    int
	}
	var slabs []slab
	scanned, largest := 0, 0
	for i := range tree.Nodes {
		if nd := &tree.Nodes[i]; nd.IsLeaf() && nd.Size() > 0 {
			m := nd.Size()
			slabs = append(slabs, slab{tree.CoordsF32[int(nd.Lo)*2 : int(nd.Lo)*2+2*m], m})
			scanned += m
			largest = max(largest, m)
		}
	}
	dst := make([]float32, largest)
	mask := make([]byte, largest)
	q32 := []float32{float32(q2.At(0)[0]), float32(q2.At(0)[1])}
	hi32 := []float32{q32[0] + 10, q32[1] + 10}
	sq := midmeanOf(5, func() {
		for _, s := range slabs {
			kernel.SqDistsF32(dst[:s.m], q32, s.cols, s.m, s.m)
		}
	})
	pb := midmeanOf(5, func() {
		for _, s := range slabs {
			kernel.PruneBox(mask[:s.m], q32, hi32, s.cols, s.m, s.m)
		}
	})
	r.emit("kernel.sqdists_ns_per_pt", sq*1e9/float64(scanned))
	r.emit("kernel.prunebox_ns_per_pt", pb*1e9/float64(scanned))
	r.logf("kernel  impl=%s slabs=%d mean_leaf=%.1f pts, computed bytes/pt: sqdists %d read + 4 written, prunebox %d read + 1 written",
		kernel.Impl(), len(slabs), float64(scanned)/float64(len(slabs)), 4*2, 4*2)

	// --- kdtree range search (its k-NN is a rung below) -----------------
	phase := rec.begin("ledger/kdtree.RangeSearch", ledger)
	boxes := make([]geom.Box, nq)
	for i := range boxes {
		q := q2.At(i)
		boxes[i] = geom.Box{Min: []float64{q[0] - 2, q[1] - 2}, Max: []float64{q[0] + 2, q[1] + 2}}
	}
	r.emit("kdtree.range_ns", timeEach(nq, func(i int) { tree.RangeSearch(boxes[i]) }))
	rec.end(phase)

	// --- the read rungs ----------------------------------------------------
	bdl := bdltree.New(2, bdltree.Options{})
	bdl.Insert(d2)
	eng := engine.New(2, engine.Options{Shards: shards})
	if res := eng.Insert(d2); res.Err != nil {
		return res.Err
	}
	defer eng.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.New(eng, 2, lis)
	go srv.Serve() //nolint:errcheck // returns nil on Shutdown
	defer srv.Shutdown()
	raw, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return err
	}
	defer raw.Close()
	rawIn := bufio.NewReader(raw) // one read per response, as the client library does
	cl, err := client.Dial(lis.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()

	buf := kdtree.NewKNNBuffer(knnK)
	snap := eng.Snapshot()
	answers := make([][]int32, nq)
	var frame, rbuf []byte
	var rawErr error
	medians := map[string]float64{}
	rungFns := []func(i int){
		func(i int) {
			s := slabs[i%len(slabs)]
			q := q2.At(i)
			q32[0], q32[1] = float32(q[0]), float32(q[1])
			kernel.SqDistsF32(dst[:s.m], q32, s.cols, s.m, s.m)
		},
		func(i int) { buf.Reset(); tree.KNNInto(q2.At(i), -1, buf) },
		func(i int) { buf.Reset(); bdl.KNNInto(q2.At(i), -1, buf) },
		func(i int) { buf.Reset(); snap.KNNInto(q2.At(i), -1, buf) },
		func(i int) { answers[i] = eng.KNN(q2.At(i), knnK) },
		func(i int) { knnCodec(q2.At(i), answers[i]) },
		func(i int) {
			req := wire.Request{Op: wire.OpKNN, ID: uint64(i + 1), K: knnK, Queries: geom.Points{Data: q2.At(i), Dim: 2}}
			frame = wire.AppendRequest(frame[:0], &req)
			if _, err := raw.Write(frame); err != nil {
				rawErr = err
				return
			}
			if rbuf, err = wire.ReadFrame(rawIn, rbuf); err != nil {
				rawErr = err
				return
			}
			if _, _, err := wire.DecodeResponse(rbuf, 2); err != nil {
				rawErr = err
			}
		},
		func(i int) {
			if _, err := cl.KNN(q2.At(i), knnK); err != nil {
				rawErr = err
			}
		},
	}
	// The rungs take turns on blocks of queries rather than running one
	// after the other: the loopback rungs are bimodal on this kind of host
	// (≈ 25 µs while the peer thread is still spinning, ≈ 130 µs once it has
	// gone to sleep) and the mix drifts over seconds, so two rungs timed in
	// different seconds would differ by the drift, not by their layers.
	const block = 250
	phase = rec.begin("ledger/knn rungs", ledger)
	durs := make([][]float64, len(knnRungs))
	var untraced []float64
	for lo := 0; lo < nq; lo += block {
		hi := min(lo+block, nq)
		for ri, rg := range knnRungs {
			for i := lo; i < min(lo+16, hi); i++ { // back in this rung's code and data
				rungFns[ri](i)
			}
			// Tracing overhead: the Engine.KNN block is also run with the
			// recorder off, before the traced pass on odd blocks and after
			// it on even ones, so that neither always finds the caches warm.
			plain := func() {
				for i := lo; i < hi; i++ {
					start := time.Now()
					rungFns[ri](i)
					untraced = append(untraced, float64(time.Since(start)))
				}
			}
			if ri == engineRung && (lo/block)%2 == 1 {
				plain()
			}
			for i := lo; i < hi; i++ {
				start := time.Now()
				rungFns[ri](i)
				end := time.Now()
				durs[ri] = append(durs[ri], float64(end.Sub(start)))
				ln.add(rg.name, phase, int32(i), start, end)
			}
			if ri == engineRung && (lo/block)%2 == 0 {
				plain()
			}
			if rawErr != nil {
				return fmt.Errorf("ledger %s: %w", rg.name, rawErr)
			}
		}
	}
	rec.end(phase)
	for ri, rg := range knnRungs {
		medians[rg.name] = median(durs[ri])
	}
	r.ops(int64(nq*len(knnRungs)), 0)

	overhead := medians["Engine.KNN"]/median(untraced) - 1

	// 16 callers through the one batching client: amortised cost per query.
	phase = rec.begin("ledger/client.KNN x16", ledger)
	const callers = 16
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := rec.lane()
			for i := g; i < nq; i += callers {
				t0 := time.Now()
				cl.KNN(q2.At(i), knnK) //nolint:errcheck // the single-caller rung already proved the path
				l.add("client.KNN x16", phase, int32(i), t0, time.Now())
			}
		}(g)
	}
	wg.Wait()
	batched := float64(time.Since(start)) / float64(nq)
	rec.end(phase)

	rows := ledgerTaxes(knnRungs, ln.spans) // this lane holds the ledger's own calls only
	r.logf("ledger  k=%d k-NN, %d queries of Q2 on D2 (n=%d), one caller", knnK, nq, d2.Len())
	r.logf("ledger  %-20s %12s %12s %12s", "rung", "median ns", "tax ns", "running ns")
	tax := map[string]float64{}
	for _, row := range rows {
		tax[row.name] = row.tax
		r.logf("ledger  %-20s %12.0f %12.0f %12.0f", row.name, row.median, row.tax, row.cumulative)
	}
	sum := rows[len(rows)-1].cumulative
	r.logf("ledger  taxes sum to %.0f ns = %.1f %% of client.KNN's median %.0f ns", sum, 100*sum/medians["client.KNN"], medians["client.KNN"])
	r.logf("ledger  client.KNN x16 callers: %.0f ns per query amortised", batched)
	r.logf("ledger  tracing overhead on Engine.KNN p50: %+.2f %% (%.0f ns traced, %.0f ns untraced)", 100*overhead, medians["Engine.KNN"], median(untraced))
	r.info("trace.overhead_frac_knn_p50", overhead, "frac")
	r.info("ledger.tax_sum_over_client_knn", sum/medians["client.KNN"], "frac")

	r.emit("kdtree.knn_ns", medians["kdtree.KNNInto"])
	r.emit("bdltree.knn_ns", medians["bdltree.KNNInto"])
	r.emit("bdltree.knn_tax_ns", tax["bdltree.KNNInto"])
	r.emit("engine.snapshot_knn_ns", medians["Snapshot.KNNInto"])
	r.emit("engine.snapshot_tax_ns", tax["Snapshot.KNNInto"])
	r.emit("engine.knn_ns", medians["Engine.KNN"])
	r.emit("engine.combiner_tax_ns", tax["Engine.KNN"])
	r.emit("wire.knn_codec_ns", medians["wire.codec"])
	r.emit("server.raw_rtt_ns", medians["server.raw"])
	r.emit("server.tax_ns", tax["server.raw"])
	r.emit("client.knn_ns", medians["client.KNN"])
	r.emit("client.tax_ns", tax["client.KNN"])
	r.emit("client.knn_batched_ns", batched)

	// --- wire codec details -------------------------------------------------
	reqB, respB := knnCodec(q2.At(0), answers[0])
	r.emit("wire.knn_bytes", float64(reqB+respB))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < nq; i++ {
		knnCodec(q2.At(i), answers[i])
	}
	runtime.ReadMemStats(&ms1)
	r.emit("wire.codec_allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(nq))
	upd := wire.Request{Op: wire.OpUpdate, ID: 1, Ins: d2.Slice(0, updBatch), Del: d2.Slice(updBatch, 2*updBatch)}
	updResp := wire.Response{Op: wire.OpUpdate, ID: 1, IDs: make([]int32, updBatch), Deleted: updBatch, Epoch: 1}
	r.emit("wire.update_codec_ns_per_pt", timeEach(200, func(int) {
		b := wire.AppendRequest(nil, &upd)
		wire.DecodeRequest(b, 2) //nolint:errcheck // round trip of a frame just encoded
		b = wire.AppendResponse(nil, &updResp)
		wire.DecodeResponse(b, 2) //nolint:errcheck // same
	})/(2*updBatch))

	return nil
}

// knnCodec is everything the wire format does to one k-NN: encode and
// decode the request, encode and decode the response. Returns the frame
// sizes.
func knnCodec(q []float64, ids []int32) (int, int) {
	req := wire.Request{Op: wire.OpKNN, ID: 1, K: knnK, Queries: geom.Points{Data: q, Dim: len(q)}}
	rb := wire.AppendRequest(nil, &req)
	wire.DecodeRequest(rb, len(q)) //nolint:errcheck // round trip of a frame just encoded
	resp := wire.Response{Op: wire.OpKNN, ID: 1, Neighbors: [][]int32{ids}}
	pb := wire.AppendResponse(nil, &resp)
	wire.DecodeResponse(pb, len(q)) //nolint:errcheck // same
	return len(rb), len(pb)
}

// ledgerWrites is the write ledger, the part of the traced run embed-churn
// homes: embed-churn's 512-point churn stream over its base set, driven
// through bdltree (mutable and persistent), the non-durable engine and the
// durable engine; the WAL's cost is the difference of the last two plus
// what the counting VFS saw.
func ledgerWrites(r *run, base geom.Points) error {
	rec := r.rec
	dim := base.Dim
	ledger := rec.begin("ledger", 0)
	defer rec.end(ledger)
	nUpd := r.sz.ledgerUpd
	perUpd := float64(2 * updBatch)
	ln := rec.lane()

	// runStream pushes nUpd churn updates through apply and returns the
	// median ns per update. Every rung sees the same batches.
	runStream := func(name string, ids []int32, apply updater) (float64, *churn, error) {
		phase := rec.begin("ledger/"+name, ledger)
		defer rec.end(phase)
		ch := newChurn(base, ids, updBatch, updLag, stream(r.seed, "churn"))
		d := make([]float64, 0, nUpd)
		for i := 0; i < nUpd; i++ {
			start, end, err := ch.step(apply)
			if err != nil {
				return 0, ch, fmt.Errorf("ledger %s: %w", name, err)
			}
			ln.add(name, phase, int32(i), start, end)
			d = append(d, float64(end.Sub(start)))
		}
		r.ops(int64(nUpd), ch.wrong)
		return median(d), ch, nil
	}

	// bdltree, mutable API: insert and delete timed apart.
	var insNs, delNs []float64
	bdl := bdltree.New(dim, bdltree.Options{})
	ids := bdl.Insert(base)
	if _, _, err := runStream("bdltree.Insert+Delete", ids, func(ins, del geom.Points) (int, uint64, []int32, error) {
		t0 := time.Now()
		got := bdl.Insert(ins)
		t1 := time.Now()
		n := bdl.Delete(del)
		insNs = append(insNs, float64(t1.Sub(t0)))
		delNs = append(delNs, float64(time.Since(t1)))
		return n, 0, got, nil
	}); err != nil {
		return err
	}
	r.emit("bdltree.insert_ns_per_pt", median(insNs)/updBatch)
	r.emit("bdltree.delete_ns_per_pt", median(delNs)/updBatch)
	r.emit("bdltree.num_trees", float64(bdl.NumTrees()))

	// bdltree, persistent API (what the engine's commits call).
	insNs, delNs = insNs[:0], delNs[:0]
	pt := bdltree.New(dim, bdltree.Options{})
	pt, ids = pt.PersistentInsert(base)
	if _, _, err := runStream("bdltree.Persistent", ids, func(ins, del geom.Points) (int, uint64, []int32, error) {
		t0 := time.Now()
		next, got := pt.PersistentInsert(ins)
		t1 := time.Now()
		next, n := next.PersistentDelete(del)
		insNs = append(insNs, float64(t1.Sub(t0)))
		delNs = append(delNs, float64(time.Since(t1)))
		pt = next
		return n, 0, got, nil
	}); err != nil {
		return err
	}
	r.emit("bdltree.pinsert_ns_per_pt", median(insNs)/updBatch)
	r.emit("bdltree.pdelete_ns_per_pt", median(delNs)/updBatch)

	// Engine.Update, non-durable.
	eng := engine.New(dim, engine.Options{Shards: shards})
	res := eng.Insert(base)
	plain, _, err := runStream("Engine.Update", res.IDs, engineUpdater(eng))
	eng.Close()
	if err != nil {
		return err
	}
	r.emit("engine.update_ns_per_pt", plain/perUpd)

	// Engine.Update, durable, through the counting file system.
	dir, err := r.tempDir("ledger")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfs := &countFS{}
	opts := engine.Options{Shards: shards, Durability: &engine.Durability{Dir: dir, SyncEvery: 64, CheckpointEvery: 0, FS: cfs}}
	deng, err := engine.Open(dim, opts)
	if err != nil {
		return err
	}
	res = deng.Insert(base)
	if res.Err != nil {
		deng.Close()
		return res.Err
	}
	before := cfs.counts()
	durable, ch, err := runStream("Engine.Update durable", res.IDs, engineUpdater(deng))
	if err != nil {
		deng.Close()
		return err
	}
	io := cfs.counts().sub(before)
	r.emit("wal.commit_tax_ns_per_pt", (durable-plain)/perUpd)
	r.emit("wal.write_bytes_per_user_byte", float64(io.writeBytes)/(float64(nUpd)*perUpd*float64(dim)*8))
	r.emit("wal.writes", float64(io.writes))
	r.emit("wal.syncs", float64(io.syncs))
	r.emit("wal.write_busy_s", io.writeBusy.Seconds())
	r.emit("wal.sync_busy_s", io.syncBusy.Seconds())
	start := time.Now()
	if err := deng.Checkpoint(); err != nil {
		deng.Close()
		return err
	}
	r.emit("wal.checkpoint_s", time.Since(start).Seconds())
	// A few more commits so recovery replays log on top of the checkpoint.
	for i := 0; i < 8; i++ {
		if _, _, err := ch.step(engineUpdater(deng)); err != nil {
			deng.Close()
			return err
		}
	}
	if err := deng.Close(); err != nil {
		return err
	}
	start = time.Now()
	reng, err := engine.Open(dim, opts)
	if err != nil {
		return err
	}
	recoverS := time.Since(start).Seconds()
	defer reng.Close()
	r.emit("wal.recover_ns_per_pt", recoverS*1e9/float64(reng.Size()))
	pts, gids := reng.Snapshot().Points()
	wrong := int64(0)
	if diff := liveSetDiff(ch.model(base, res.IDs), pts, gids); diff != "" {
		wrong++
		r.logf("WRONG   ledger recovery: %s", diff)
	}
	r.ops(1, wrong)
	r.logf("ledger  512+512-point updates: engine %.0f ns/pt, durable %.0f ns/pt; WAL wrote %d bytes in %d writes, %d fsyncs",
		plain/perUpd, durable/perUpd, io.writeBytes, io.writes, io.syncs)
	return nil
}
