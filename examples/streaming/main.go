// Streaming: maintain k-nearest-neighbor queries over a point set that
// changes in batches, using the BDL-tree (the paper's batch-dynamic
// kd-tree). A sliding window of sensor-like readings is inserted and
// expired batch by batch while queries run between updates — the workload
// the logarithmic method is designed for, where rebuilding from scratch
// would dominate and in-place insertion would degrade query time.
package main

import (
	"fmt"
	"time"

	"pargeo"
)

func main() {
	const (
		dim       = 3
		batchSize = 20000
		window    = 5 // keep this many batches live
		rounds    = 12
	)
	bdl := pargeo.NewBDLTree(dim, pargeo.BDLOptions{})

	var batches []pargeo.Points
	var insertBDL, queryBDL time.Duration

	for r := 0; r < rounds; r++ {
		batch := pargeo.Uniform(batchSize, dim, uint64(r)+1)
		batches = append(batches, batch)

		start := time.Now()
		bdl.Insert(batch)
		insertBDL += time.Since(start)

		// Expire the oldest batch once the window is full.
		if len(batches) > window {
			bdl.Delete(batches[0])
			batches = batches[1:]
		}

		// Query: 5-NN of a fresh probe batch against the live window.
		probes := pargeo.Uniform(1000, dim, uint64(r)+1000)
		start = time.Now()
		res := bdl.KNN(probes, 5, nil)
		queryBDL += time.Since(start)

		fmt.Printf("round %2d: live=%6d  trees=%d  first probe -> %v\n",
			r, bdl.Size(), bdl.NumTrees(), res[0])
		if want := min(r+1, window) * batchSize; bdl.Size() != want {
			panic(fmt.Sprintf("live size %d, want %d", bdl.Size(), want))
		}
	}
	fmt.Printf("\ntotals over %d rounds:\n", rounds)
	fmt.Printf("  BDL inserts: %8.1fms   (amortized log-structured rebuilds)\n", insertBDL.Seconds()*1000)
	fmt.Printf("  BDL queries: %8.1fms\n", queryBDL.Seconds()*1000)
}
