package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pargeo/internal/geom"
	"pargeo/internal/oracle"
)

func TestWindowPctilesIsMedianOfWindows(t *testing.T) {
	// Three windows over [0, 300): latencies 1..100 in the first and
	// third, and a stalled second window where everything took 1000.
	var s []sample
	for i := 0; i < 100; i++ {
		s = append(s, sample{at: int64(i), dur: int64(i + 1)})
		s = append(s, sample{at: int64(100 + i), dur: 1000})
		s = append(s, sample{at: int64(200 + i), dur: int64(i + 1)})
	}
	// p50: the windows give 50.5, 1000, 50.5; max: 100, 1000, 100.
	if got, used := windowPctiles(s, 300, 3, 50, 100); got[0] != 50.5 || got[1] != 100 || used != 3 {
		t.Fatalf("window medians = %v, want [50.5 100]", got)
	}
	// One window over the same samples is the plain percentile, which the
	// stall does move.
	if whole, _ := windowPctiles(s, 300, 1, 50); whole[0] <= 50.5 {
		t.Fatalf("single-window p50 = %v, want the stall to raise it", whole[0])
	}
	if w := windowsFor(99); w != 1 {
		t.Fatalf("windowsFor(99) = %d", w)
	}
	if w := windowsFor(1_000_000); w != 40 {
		t.Fatalf("windowsFor(1e6) = %d", w)
	}
	// The summary's window medians ignore the stalled window; the whole-phase
	// tail and the stalled share beside them do not.
	for i := range s {
		if s[i].dur == 1000 {
			s[i].dur = 2 * stallLimit
		}
	}
	sum := summarize(s, 300) // 300 samples: six windows, two of them stalled
	if sum.windows != 6 || sum.p99 >= stallLimit || sum.wholeP99 != 2*stallLimit || math.Abs(sum.stalled-1.0/3) > 1e-9 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestPctileGeomean(t *testing.T) {
	v := []float64{10, 20, 30, 40}
	if p := pctile(v, 50); p != 25 {
		t.Fatalf("p50 = %v", p)
	}
	if p := pctile(v, 100); p != 40 {
		t.Fatalf("p100 = %v", p)
	}
	if p := pctile(nil, 99); p != 0 {
		t.Fatalf("empty = %v", p)
	}
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v", g)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps span 1: the union [10, 60) is covered once
		{ID: 3, Parent: 0, Start: 80, End: 120}, // runs past its parent: clipped at 100
		{ID: 4, Parent: 1, Start: 10, End: 15},
	}
	self := selfTimes(spans)
	want := map[int32]int64{0: 100 - 50 - 20, 1: 25, 2: 30, 3: 40, 4: 5}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
}

func TestLedgerTaxes(t *testing.T) {
	rungs := []rung{{name: "a"}, {name: "b"}, {name: "codec", additive: true}, {name: "c"}}
	var spans []span
	add := func(name string, qid int32, dur int64) {
		spans = append(spans, span{Name: name, QID: qid, Start: 1000, End: 1000 + dur})
	}
	for q := int32(0); q < 5; q++ {
		add("a", q, 10+int64(q))  // 10..14
		add("b", q, 30+int64(q))  // always a + 20
		add("codec", q, 5)        // additive: costs 5 on its own
		add("c", q, 100+int64(q)) // b + codec + 65
	}
	add("c", 99, 1) // a query id the rungs below never saw is skipped
	spans = append(spans, span{Name: "a", QID: -1, Start: 0, End: 1 << 40})
	rows := ledgerTaxes(rungs, spans)
	wantTax := []float64{12, 20, 5, 65}
	wantRun := []float64{12, 32, 37, 102}
	for i, row := range rows {
		if row.tax != wantTax[i] || row.cumulative != wantRun[i] {
			t.Fatalf("rung %s: tax %v running %v, want %v %v", row.name, row.tax, row.cumulative, wantTax[i], wantRun[i])
		}
	}
	if rows[3].median != 101.5 {
		// c has durations 100..104 and the stray 1.
		t.Fatalf("median of c = %v", rows[3].median)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	id := off.begin("x", -1)
	off.end(id)
	off.lane().add("y", id, 0, time.Now(), time.Now())
	if off.all() != nil {
		t.Fatal("nil recorder recorded")
	}
	r := newRecorder()
	root := r.begin("root", -1)
	ln := r.lane()
	t0 := time.Now()
	ln.add("call", root, 7, t0, t0.Add(time.Millisecond))
	r.end(root)
	all := r.all()
	if len(all) != 2 || all[1].Parent != root || all[1].QID != 7 || all[1].End-all[1].Start != int64(time.Millisecond) {
		t.Fatalf("spans = %+v", all)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, fingerprint{Commit: "c"}, "w", 3, all); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Spans    []map[string]any
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if doc.Workload != "w" || len(doc.Spans) != 2 || doc.Spans[1]["name"] != "call" {
		t.Fatalf("trace = %+v", doc)
	}
}

func TestCountFS(t *testing.T) {
	fs := &countFS{}
	name := filepath.Join(t.TempDir(), "seg")
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	before := fs.counts()
	for _, chunk := range []string{"hello ", "world"} {
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := fs.counts().sub(before)
	if got.writes != 2 || got.writeBytes != 11 || got.syncs != 1 {
		t.Fatalf("counts = %+v", got)
	}
	if got.writeBusy <= 0 || got.syncBusy <= 0 {
		t.Fatalf("busy times not measured: %+v", got)
	}
	// Reads pass through to the real file system.
	if b, err := fs.ReadFile(name); err != nil || string(b) != "hello world" {
		t.Fatalf("read back %q, %v", b, err)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	rates := []float64{2000, 200}
	a := poissonSchedule(7, time.Second, rates)
	b := poissonSchedule(7, time.Second, rates)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, time.Second, rates)) {
		t.Fatal("different seeds, same schedule")
	}
	counts := [2]int{}
	for i, ev := range a {
		if i > 0 && ev.at < a[i-1].at {
			t.Fatal("schedule not time-ordered")
		}
		if ev.at < 0 || ev.at >= time.Second {
			t.Fatalf("arrival at %v outside the span", ev.at)
		}
		counts[ev.class]++
	}
	// Poisson counts: mean λ, standard deviation √λ; 6σ never fails.
	for c, rate := range rates {
		if d := math.Abs(float64(counts[c]) - rate); d > 6*math.Sqrt(rate) {
			t.Fatalf("class %d: %d arrivals at %v/s", c, counts[c], rate)
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	d := datasetD2(2000)
	if !reflect.DeepEqual(d, datasetD2(2000)) {
		t.Fatal("datasetD2 is not a constant")
	}
	q := queriesQ2(d, 64, 5)
	if !reflect.DeepEqual(q, queriesQ2(d, 64, 5)) || reflect.DeepEqual(q, queriesQ2(d, 64, 6)) {
		t.Fatal("queriesQ2 is not a function of the seed alone")
	}
	box := geom.BoundingBoxAll(d)
	for i := 3; i < q.Len(); i += 4 {
		if !box.Contains(q.At(i)) {
			t.Fatalf("uniform query %d outside the bounding box", i)
		}
	}
}

func TestKNNCheckAgainstOracle(t *testing.T) {
	pts := datasetD2(500)
	q := []float64{10, 10}
	want := oracle.KNN(pts, q, 8, -1)
	if !knnAnswerOK(pts, q, 8, -1, want) {
		t.Fatal("the oracle's answer was rejected")
	}
	bad := append([]int32(nil), want...)
	bad[7] = oracle.KNN(pts, q, 9, -1)[8] // ninth-nearest in place of the eighth
	if knnAnswerOK(pts, q, 8, -1, bad) {
		t.Fatal("a wrong answer was accepted")
	}
	if knnAnswerOK(pts, q, 8, -1, want[:7]) {
		t.Fatal("a short answer was accepted")
	}
}

func TestLiveSetDiff(t *testing.T) {
	m := &oracle.LiveSet{Dim: 2}
	m.Insert([]int32{4, 9}, geom.Points{Data: []float64{1, 2, 3, 4}, Dim: 2})
	same := geom.Points{Data: []float64{3, 4, 1, 2}, Dim: 2}
	if d := liveSetDiff(m, same, []int32{9, 4}); d != "" {
		t.Fatalf("equal sets differ: %s", d)
	}
	if liveSetDiff(m, same, []int32{9, 5}) == "" || liveSetDiff(m, geom.Points{Data: []float64{3, 4, 1, 2.5}, Dim: 2}, []int32{9, 4}) == "" ||
		liveSetDiff(m, geom.Points{Data: []float64{3, 4}, Dim: 2}, []int32{9}) == "" {
		t.Fatal("a differing set was accepted")
	}
}

func TestCheckSizing(t *testing.T) {
	for _, c := range []struct {
		nproc, gen, daemon, conns int
		ok                        bool
	}{
		{2, 2, 0, 0, true},  // embedded: nproc callers
		{2, 1, 1, 1, true},  // serve-mixed on 2 processors
		{8, 1, 7, 1, true},  // and on 8
		{1, 1, 1, 1, true},  // one processor: allowed, flagged in the output
		{2, 2, 1, 1, false}, // generator would share the daemon's processor
		{2, 1, 1, 3, false}, // more connections than processors
		{2, 3, 0, 0, false}, // more callers than processors
	} {
		if err := checkSizing(c.nproc, c.gen, c.daemon, c.conns); (err == nil) != c.ok {
			t.Errorf("checkSizing(%d, %d, %d, %d) = %v, want ok=%v", c.nproc, c.gen, c.daemon, c.conns, err, c.ok)
		}
	}
}

// TestBenchmarkJSON keeps the contract file and the tables in main.go in
// step: same workloads, same metrics, same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, the program has %v", names, workloadNames())
	}
	same := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, the program has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s metric %d: declared %+v, the program has %+v", kind, i, m, want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, m := range perLayer {
		homes := strings.Fields(m.on)
		if len(homes) == 0 {
			t.Errorf("%s: no workload's traced run measures it", m.name)
		}
		for _, w := range homes {
			if !slices.Contains(workloadNames(), w) {
				t.Errorf("%s: measured on unknown workload %q", m.name, w)
			}
		}
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
}

// TestSmoke runs every workload once untraced and once traced at the
// smoke sizes and asserts the contract of the output: the last line is one
// JSON object whose metrics are exactly the declared ones, each once, each
// with its unit, and no operation failed.
func TestSmoke(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				r, err := parseArgs([]string{"--workload", w, "--seed", "3", "--seconds", "0.4", "--trace", trace}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				out := t.TempDir()
				var buf bytes.Buffer
				r.smoke, r.sz, r.outDir, r.out = true, smokeSizes, out, &buf
				if err := r.execute(); err != nil {
					t.Fatalf("%v\n%s", err, buf.String())
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, buf.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics in the result, %d declared", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Value == nil || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want a value with unit %q", m.name, got, m.unit)
						continue
					}
					if n := strings.Count(buf.String(), "metric  "+m.name+" "); n != 1 {
						t.Errorf("metric %s printed %d times", m.name, n)
					}
					if trace == "0" && !(*got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.name, *got.Value)
					}
				}
				// Everything a run leaves behind is inside its output
				// directory, and no temp directory survives it.
				left, _ := filepath.Glob(filepath.Join(out, "tmp-*"))
				if len(left) > 0 {
					t.Errorf("temp directories left behind: %v", left)
				}
				if trace == "1" {
					if _, err := os.Stat(filepath.Join(out, w+".trace.json")); err != nil {
						t.Errorf("no trace written: %v", err)
					}
				}
			})
		}
	}
}

// TestHostRef: without a yardstick every slowdown is 1; with one, around
// is the median of the slice it takes and the recent ones before it, and a
// timeline's segment is scaled by the slowdown around it — a rate
// multiplied, a time divided.
func TestHostRef(t *testing.T) {
	var none *hostRef
	if none.slice() != 1 || none.around() != 1 || none.slowdown() != 1 {
		t.Fatal("nil yardstick: every slowdown must be 1")
	}
	h := newHostRef(2)
	h.each = time.Millisecond
	if s := h.slowdown(); s != 1 {
		t.Fatalf("no slices: slowdown %v, want 1", s)
	}
	old := runtime.GOMAXPROCS(1)
	first := h.slice()
	if now := runtime.GOMAXPROCS(old); now != 1 {
		t.Errorf("slice left GOMAXPROCS at %d, want it restored to 1", now)
	}
	if len(h.slow) != 1 || !(first > 0) || math.IsInf(first, 0) || !(h.reg > 0) || !(h.mem > 0) {
		t.Fatalf("slice recorded %v (reg %v, mem %v)", h.slow, h.reg, h.mem)
	}
	// around: the median of the new slice and the recent ones before it,
	// at most aroundSlices in all, none older than aroundWindow.
	now := time.Now()
	h.slow, h.at = []float64{9, 9, 8, 8, 8, 8}, []time.Time{now, now, now, now, now, now}
	if got := h.around(); len(h.slow) != 7 || got != 8 {
		t.Errorf("around = %v over %v, want 8: the median of the last five", got, h.slow)
	}
	for i := range h.at[:6] {
		h.at[i] = now.Add(-2 * aroundWindow)
	}
	h.at[6] = now.Add(-aroundWindow / 2)
	h.slow[6] = 2
	if got, want := h.around(), (2+h.slow[7])/2; got != want {
		t.Errorf("around = %v, want %v: stale slices must not count", got, want)
	}
	// The walk is one cycle through every entry.
	seen, at := 0, uint32(0)
	for ok := true; ok; ok = at != 0 {
		at = refTable[at]
		seen++
	}
	if seen != refTableLen {
		t.Errorf("memory walk cycles after %d of %d entries", seen, refTableLen)
	}
	// Two segments of one second: 100 calls of 10 ns while the host ran at
	// half speed, 50 calls of 20 ns at a quarter. At nominal speed both are
	// 200 calls/s of 5 ns.
	var tl timeline
	mk := func(n int, dur int64) []sample {
		s := make([]sample, n)
		for i := range s {
			s[i] = sample{at: int64(i), dur: dur}
		}
		return s
	}
	tl.add(mk(100, 10), time.Second, 2)
	tl.add(mk(50, 20), time.Second, 4)
	tl.add(nil, time.Second, 9) // an empty segment is no window
	sum := tl.summary()
	if sum.windows != 2 || sum.n != 150 || sum.perSec != 200 || sum.p50 != 5 || sum.p95 != 5 || sum.p99 != 5 {
		t.Errorf("summary at nominal speed = %+v", sum)
	}
	if sum.raw != [4]float64{75, 15, 15, 15} {
		t.Errorf("summary as measured = %v, want the medians 75/s and 15 ns", sum.raw)
	}
}

func TestUsageErrors(t *testing.T) {
	if _, err := parseArgs([]string{"--trace", "2"}, io.Discard); err == nil {
		t.Error("--trace 2 accepted")
	}
	r, err := parseArgs([]string{"--workload", "nope"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r.out = io.Discard
	if err := r.execute(); err == nil {
		t.Error("unknown workload accepted")
	}
}
