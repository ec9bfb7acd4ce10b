// Command pargeo-bench regenerates every table and figure of the ParGeo
// paper's evaluation (§6) on the current machine, plus the three serving
// experiments (engine, overload, mvcc) that benchmark/ does not carry
// yet:
//
//	pargeo-bench -experiment table1
//	pargeo-bench -experiment all
//
// The experiments table below is the one list of what -experiment
// accepts; -h prints it.
//
// The paper's experiments use 10M–100M points on a 36-core machine; -n
// scales the base data-set size (default 200000) so the suite runs
// anywhere. Shapes (which algorithm wins, crossover behavior) reproduce;
// absolute times depend on the host.
//
// The engine experiment sweeps the Morton shard count (-shards) and the
// per-configuration measurement window (-measure).
//
// The kd-tree, WAL and wire layers are timed by benchmark/ (see
// BENCHMARK.json), which is also the repository's only regression gate;
// nothing here compares against a stored baseline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// experiment is one entry of the -experiment list.
type experiment struct {
	name string
	what string
	run  func()
}

// experiments is every experiment, in the order -experiment all runs them.
var experiments = []experiment{
	{"table1", "Table 1: runtimes + self-relative speedups", func() { table1(*flagN, *flagSeed) }},
	{"fig8", "2D convex hull across data sets", func() { fig8(*flagN, *flagSeed) }},
	{"fig9", "3D convex hull across data sets", func() { fig9(*flagN, *flagSeed) }},
	{"fig10", "smallest enclosing ball across data sets", func() { fig10(*flagN, *flagSeed) }},
	{"fig11", "BDL-tree throughput vs threads", func() { fig11(*flagN, *flagSeed, parseThreads(*flagThreads)) }},
	{"fig12", "reservation overhead counters", func() { fig12(*flagN, *flagSeed) }},
	{"fig14", "k-NN throughput vs k on incrementally built trees", func() { fig14(*flagN, *flagSeed) }},
	{"hullstats", "§6.1 pseudohull pruning statistics", func() { hullStats(*flagN, *flagSeed) }},
	{"sebstats", "§6.2 sampling-phase statistics", func() { sebStats(*flagN, *flagSeed) }},
	{"zdcompare", "§6.3 BDL-tree vs Zd-tree", func() { zdCompare(*flagN, *flagSeed) }},
	{"engine", "mixed read/write serving throughput", func() {
		engineBench(*flagN, *flagSeed, parseThreads(*flagShards), *flagMeasure)
		engineDriftBench(*flagN, *flagSeed, parseRebalance(*flagRebalance))
	}},
	{"overload", "admission control: goodput + tails at 0.5-2x saturation", func() {
		overloadBench(*flagN, *flagSeed, *flagMeasure, *flagOverAssert)
	}},
	{"mvcc", "MVCC retention: analytics-vs-writer interference + memory", func() {
		mvccBench(*flagN, *flagSeed, *flagMVCCAssert)
	}},
}

// experimentList renders the table for -h and for the unknown-name error.
func experimentList(exps []experiment) string {
	var b strings.Builder
	for _, e := range exps {
		fmt.Fprintf(&b, "  %-10s %s\n", e.name, e.what)
	}
	fmt.Fprintf(&b, "  %-10s every experiment above, in that order", "all")
	return b.String()
}

var (
	flagExperiment = flag.String("experiment", "all", "experiment to run, one of:\n"+experimentList(experiments))
	flagN          = flag.Int("n", 200000, "base data-set size (paper: 10M)")
	flagThreads    = flag.String("threads", "", "comma-separated thread counts for scaling experiments (default 1,2,4,...,NumCPU)")
	flagSeed       = flag.Uint64("seed", 42, "data-generation seed")
	flagVerify     = flag.Bool("verify", false, "cross-check results between implementations where cheap")
	flagShards     = flag.String("shards", "1,2,4", "comma-separated engine shard counts for the engine experiment sweep")
	flagMeasure    = flag.Duration("measure", 1500*time.Millisecond, "measurement window per engine-experiment configuration")
	flagOverAssert = flag.Bool("overload-assert", false, "overload experiment: exit 1 unless goodput at 2x saturation stays within 80% of the best observed and the successful-read p99 stays bounded")
	flagMVCCAssert = flag.Bool("mvcc-assert", false, "mvcc experiment: exit 1 unless writer throughput under concurrent pinned analytics stays >= 70% of the no-analytics baseline")
	flagRebalance  = flag.String("rebalance", "off,on", "comma-separated rebalancer modes (off,on) for the engine experiment's drifting hot-spot sweep")
)

func main() {
	flag.Parse()
	fmt.Printf("pargeo-bench: n=%d, host CPUs=%d, threads=%v\n\n", *flagN, runtime.NumCPU(), parseThreads(*flagThreads))
	os.Exit(runExperiments(experiments, *flagExperiment, os.Stderr))
}

// runExperiments runs the experiment called name, or all of them, and
// returns the process exit status. A typo must not silently run nothing,
// so an unknown name is status 2 with the list on errw.
func runExperiments(exps []experiment, name string, errw io.Writer) int {
	matched := false
	for _, e := range exps {
		if name == e.name || name == "all" {
			matched = true
			start := time.Now()
			e.run()
			fmt.Printf("[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
		}
	}
	if !matched {
		fmt.Fprintf(errw, "unknown experiment %q; want one of:\n%s\n", name, experimentList(exps))
		return 2
	}
	return 0
}

func parseThreads(s string) []int {
	if s == "" {
		max := runtime.NumCPU()
		var out []int
		for p := 1; p < max; p *= 2 {
			out = append(out, p)
		}
		return append(out, max)
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "bad thread count %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// parseRebalance parses the -rebalance sweep list ("off,on") into bools.
func parseRebalance(s string) []bool {
	var out []bool
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "off":
			out = append(out, false)
		case "on":
			out = append(out, true)
		default:
			fmt.Fprintf(os.Stderr, "bad rebalance mode %q (want off or on)\n", part)
			os.Exit(2)
		}
	}
	return out
}

// timeIt runs f once and returns elapsed seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// withThreads runs f under a specific GOMAXPROCS and restores the setting.
func withThreads(p int, f func()) float64 {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	return timeIt(f)
}

func ms(sec float64) string { return fmt.Sprintf("%.1f", sec*1000) }
