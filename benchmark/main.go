// Command benchmark is the one benchmark for the whole pargeo stack: four
// workloads, a fixed set of end-to-end metrics measured with tracing off,
// and a per-layer ledger measured in a separate traced run. It generates
// its inputs from --seed, runs one workload, checks the answers, prints
// every metric by name with its unit, and ends with one JSON line. It is a
// module of its own (go.mod beside this file); run.sh builds it and runs it
// from the root of the checkout:
//
//	bash benchmark/run.sh --workload embed-read --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metric → layer →
// workload predictions, and how the regression bounds were derived.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"pargeo/internal/kernel"
)

// metricSpec names one metric, its unit and which direction is better.
// endToEnd and perLayer are the same lists BENCHMARK.json declares (a test
// keeps them equal). on is set for per-layer metrics only: the workloads
// whose traced run measures the metric. Every traced run reports every
// per-layer metric, as the driver requires; a metric of a layer the
// workload does not home reads 0 there.
type metricSpec struct{ name, unit, better, on string }

// Where each part of the per-layer ledger is measured: each part runs once,
// in the traced run of the workload whose inputs it shares.
const (
	onBatch = "paper-batch" // the stage table and the parlay loops
	onRead  = "embed-read"  // the read ledger: Q2 on D2 through every rung, kernel to client
	onWrite = "embed-churn" // the write ledger: the churn stream through bdltree, engine, WAL
	onServe = "serve-mixed" // counters of the daemon and the client over the traced workload
	// Engine counters taken over the traced workload itself.
	onEngines = onRead + " " + onWrite + " " + onServe
)

// Every end-to-end metric is defined on every workload; README.md says
// what each means per workload. Metrics that exist on some workloads only
// (recover_s, batch_speedup, failed_frac) are printed, not gated; so is
// the p99 of each latency class, beside the gated p95 (README.md, Bounds:
// with one commit in 64 carrying an fsync, 1.6 % of the operations behind
// it are slow, and a p99 sits on the edge of those).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", ""},
	{"rss_mb", "MB", "lower", ""},
	{"knn_per_s", "1/s", "higher", ""},
	{"knn_p50_us", "us", "lower", ""},
	{"knn_p95_us", "us", "lower", ""},
	{"update_pts_per_s", "1/s", "higher", ""},
	{"update_p50_us", "us", "lower", ""},
	{"update_p95_us", "us", "lower", ""},
	{"batch_geomean_s", "s", "lower", ""},
}

var perLayer = []metricSpec{
	{"kernel.sqdists_ns_per_pt", "ns", "lower", onRead},
	{"kernel.prunebox_ns_per_pt", "ns", "lower", onRead},
	{"kdtree.build_ns_per_pt", "ns", "lower", onBatch},
	{"kdtree.build_speedup", "x", "higher", onBatch},
	{"kdtree.knn_ns", "ns", "lower", onRead},
	{"kdtree.allknn_ns_per_pt", "ns", "lower", onBatch},
	{"kdtree.range_ns", "ns", "lower", onRead},
	{"bdltree.knn_ns", "ns", "lower", onRead},
	{"bdltree.knn_tax_ns", "ns", "lower", onRead},
	{"bdltree.insert_ns_per_pt", "ns", "lower", onWrite},
	{"bdltree.delete_ns_per_pt", "ns", "lower", onWrite},
	{"bdltree.pinsert_ns_per_pt", "ns", "lower", onWrite},
	{"bdltree.pdelete_ns_per_pt", "ns", "lower", onWrite},
	{"bdltree.num_trees", "count", "lower", onWrite},
	{"parlay.for_ns_per_task", "ns", "lower", onBatch},
	{"parlay.sort_ns_per_key", "ns", "lower", onBatch},
	{"hull2d.time_s", "s", "lower", onBatch},
	{"hull2d.speedup", "x", "higher", onBatch},
	{"hull3d.time_s", "s", "lower", onBatch},
	{"hull3d.speedup", "x", "higher", onBatch},
	{"seb.time_s", "s", "lower", onBatch},
	{"seb.speedup", "x", "higher", onBatch},
	{"engine.snapshot_knn_ns", "ns", "lower", onRead},
	{"engine.snapshot_tax_ns", "ns", "lower", onRead},
	{"engine.knn_ns", "ns", "lower", onRead},
	{"engine.combiner_tax_ns", "ns", "lower", onRead},
	{"engine.update_ns_per_pt", "ns", "lower", onWrite},
	{"engine.read_group_size", "count", "higher", onEngines},
	{"engine.write_group_size", "count", "higher", onEngines},
	{"engine.shed", "count", "lower", onEngines},
	{"wal.commit_tax_ns_per_pt", "ns", "lower", onWrite},
	{"wal.write_bytes_per_user_byte", "x", "lower", onWrite},
	{"wal.writes", "count", "lower", onWrite},
	{"wal.syncs", "count", "lower", onWrite},
	{"wal.write_busy_s", "s", "lower", onWrite},
	{"wal.sync_busy_s", "s", "lower", onWrite},
	{"wal.checkpoint_s", "s", "lower", onWrite},
	{"wal.recover_ns_per_pt", "ns", "lower", onWrite},
	{"wire.knn_codec_ns", "ns", "lower", onRead},
	{"wire.update_codec_ns_per_pt", "ns", "lower", onRead},
	{"wire.knn_bytes", "B", "lower", onRead},
	{"wire.codec_allocs_per_op", "count", "lower", onRead},
	{"server.raw_rtt_ns", "ns", "lower", onRead},
	{"server.tax_ns", "ns", "lower", onRead},
	{"server.requests", "count", "lower", onServe},
	{"server.shed", "count", "lower", onServe},
	{"client.knn_ns", "ns", "lower", onRead},
	{"client.knn_batched_ns", "ns", "lower", onRead},
	{"client.tax_ns", "ns", "lower", onRead},
	{"client.merge_ratio", "x", "higher", onServe},
}

// workloads maps each workload to its runner, in the order README.md and
// BENCHMARK.json list them.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"paper-batch", runPaperBatch},
	{"embed-read", runEmbedRead},
	{"embed-churn", runEmbedChurn},
	{"serve-mixed", runServeMixed},
}

// fingerprint is the environment a result was taken in; it is printed and
// stored with every result so two runs can be told apart.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`        // of this process while it measures
	DaemonProc int    `json:"daemon_gomaxprocs"` // of the pargeo-serve child (serve-mixed), else 0
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel_impl"`
	Commit     string `json:"commit"`
}

func newFingerprint() fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: kernel.Impl(), Commit: "unknown",
	}
	// The commit comes from run.sh.
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		fp.Commit = c
	}
	return fp
}

// run is one benchmark run: its parameters, its output, and what it has
// measured so far.
type run struct {
	workload string
	seed     uint64
	seconds  float64 // measuring time of the workload's timed phases
	trace    bool
	smoke    bool // set by the package tests with smokeSizes: yardstick slices of 1 ms
	sz       sizes
	setups   int    // how many times set-up is repeated (midmean reported)
	outDir   string // results, traces and temp dirs go here
	out      io.Writer
	fp       fingerprint
	rec      *recorder // nil when tracing is off
	ref      *hostRef  // the host-speed yardstick of an untraced run; nil when tracing is on

	cleanMu  sync.Mutex
	cleanups []func() // run last-in first-out on every exit path

	metrics   map[string]float64
	attempted int64
	failed    int64
}

// emit records a metric's value. Emitting a name twice is a harness bug.
// A traced run reports per-layer metrics only, so the end-to-end values its
// (shortened, traced) workload pass produces are printed for comparison
// with an untraced run and not stored.
func (r *run) emit(name string, v float64) {
	if r.trace && !strings.Contains(name, ".") {
		r.info("traced."+name, v, "")
		return
	}
	if _, dup := r.metrics[name]; dup {
		panic("benchmark: metric emitted twice: " + name)
	}
	r.metrics[name] = v
}

// ops counts operations attempted and, of those, failed: errors, sheds,
// timeouts, refused arrivals and wrong answers all land here.
func (r *run) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *run) logf(format string, a ...any) { fmt.Fprintf(r.out, format+"\n", a...) }

// info prints a measured value that is reported but not gated.
func (r *run) info(name string, v float64, unit string) {
	r.logf("info    %-32s %14.6g %s", name, v, unit)
}

// atExit registers f to run when the run ends, however it ends: a normal
// return, an error, or SIGINT/SIGTERM. Child processes and temp
// directories are released here; f must be safe to call after the resource
// was already released by hand.
func (r *run) atExit(f func()) {
	r.cleanMu.Lock()
	r.cleanups = append(r.cleanups, f)
	r.cleanMu.Unlock()
}

func (r *run) cleanup() {
	r.cleanMu.Lock()
	fs := r.cleanups
	r.cleanups = nil
	r.cleanMu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

// tempDir makes a scratch directory under the output directory (a real
// file system inside the checkout, never /tmp).
func (r *run) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(r.outDir, "tmp-"+pattern+"-")
	if err == nil {
		r.atExit(func() { os.RemoveAll(dir) })
	}
	return dir, err
}

// checkSizing refuses a plan that would oversubscribe the host: more
// runnable threads (this process's GOMAXPROCS plus the daemon's) or more
// connections than processors means the load generator and the thing it
// loads time-share a core, and the latencies measure the scheduler.
// A 1-processor host cannot separate a daemon from its generator at all;
// that is allowed, and says so in the output.
func checkSizing(nproc, genProcs, daemonProcs, conns int) error {
	if nproc == 1 && genProcs == 1 && conns <= 1 {
		return nil
	}
	if genProcs+daemonProcs > nproc {
		return fmt.Errorf("sizing: %d generator + %d daemon threads on %d processors", genProcs, daemonProcs, nproc)
	}
	if conns > nproc {
		return fmt.Errorf("sizing: %d connections on %d processors", conns, nproc)
	}
	return nil
}

// errUsage marks errors that are the caller's (bad flags), as opposed to a
// failed measurement.
var errUsage = errors.New("usage")

func parseArgs(args []string, stderr io.Writer) (*run, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 30, "measuring time of the timed phases")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer ledger instead of end-to-end metrics")
	)
	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("%w: unexpected argument %q", errUsage, fs.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return nil, fmt.Errorf("%w: --seconds must be > 0 and --trace 0 or 1", errUsage)
	}
	return &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sz: fullSizes, setups: 3, outDir: filepath.Join("benchmark", "out"), out: os.Stdout,
	}, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// execute runs the workload (traced: a shorter pass of it, then the part of
// the ledger the workload homes) and checks that exactly the metrics the
// mode promises were emitted.
func (r *run) execute() error {
	var runner func(*run) error
	for _, w := range workloads {
		if w.name == r.workload {
			runner = w.run
		}
	}
	if runner == nil {
		return fmt.Errorf("%w: unknown workload %q (have %s)", errUsage, r.workload, strings.Join(workloadNames(), ", "))
	}
	r.metrics = map[string]float64{}
	r.fp = newFingerprint()
	want := endToEnd
	if !r.trace {
		r.ref = newHostRef(r.fp.NProc)
		if r.smoke {
			r.ref.each = time.Millisecond
		}
	} else {
		// The traced pass of the workload is a third as long, sets up once
		// and carries no yardstick: its job is the spans and the counters,
		// not the gated values.
		want = perLayer
		r.rec = newRecorder()
		r.setups = 1
		r.seconds /= 3
		// A layer metric homed on another workload reads 0 here; emitting
		// it after all would be caught as a double emit.
		for _, m := range perLayer {
			if !slices.Contains(strings.Fields(m.on), r.workload) {
				r.metrics[m.name] = 0
			}
		}
	}
	defer r.cleanup()
	root := r.rec.begin(r.workload, -1)
	if err := runner(r); err != nil {
		return err
	}
	r.rec.end(root)
	for _, m := range want {
		if _, ok := r.metrics[m.name]; !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared", len(r.metrics), len(want))
	}
	return r.report(want)
}

// report prints every metric by name with its unit, stores the result
// (and the trace) under outDir, and ends with the one JSON line the
// driver parses.
func (r *run) report(want []metricSpec) error {
	r.logf("env     nproc=%d gomaxprocs=%d daemon_gomaxprocs=%d go=%s kernel=%s commit=%s",
		r.fp.NProc, r.fp.GOMAXPROCS, r.fp.DaemonProc, r.fp.GoVersion, r.fp.Kernel, r.fp.Commit)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range want {
		metrics[m.name] = value{r.metrics[m.name], m.unit}
		r.logf("metric  %-32s %14.6g %s", m.name, r.metrics[m.name], m.unit)
	}
	r.info("failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "frac")
	if r.ref != nil {
		r.info("host_slowdown", r.ref.slowdown(), "x")
		n := float64(max(len(r.ref.slow), 1))
		r.info("host_ref_slices", n, "count")
		r.info("host_ref_reg_steps_per_s", r.ref.reg/n, "1/s")
		r.info("host_ref_mem_steps_per_s", r.ref.mem/n, "1/s")
		r.info("host_ref_s", r.ref.spent.Seconds(), "s")
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, metrics}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	stored := struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Seconds  float64     `json:"seconds"`
		Trace    bool        `json:"trace"`
		Env      fingerprint `json:"env"`
		Result   any         `json:"result"`
	}{r.workload, r.seed, r.seconds, r.trace, r.fp, result}
	doc, err := json.MarshalIndent(stored, "", "  ")
	if err != nil {
		return err
	}
	name := r.workload
	if r.trace {
		name += ".trace-metrics"
		spans := r.rec.all()
		// Phases are the spans the coordinating goroutine opened; a phase's
		// self time is what none of its children (calls or sub-phases) cover.
		self := selfTimes(spans)
		for _, s := range spans[:len(r.rec.phases)] {
			r.logf("phase   %-32s %10.3f s, self %8.3f s", s.Name, float64(s.End-s.Start)/1e9, float64(self[s.ID])/1e9)
		}
		if err := writeTrace(filepath.Join(r.outDir, r.workload+".trace.json"), r.fp, r.workload, r.seed, spans); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(r.outDir, name+".json"), append(doc, '\n'), 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.out, "%s\n", line)
	return err
}

func main() {
	r, err := parseArgs(os.Args[1:], os.Stderr)
	if err == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sig
			fmt.Fprintln(os.Stderr, "benchmark:", s)
			r.cleanup()
			os.Exit(130)
		}()
		err = r.execute()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}
