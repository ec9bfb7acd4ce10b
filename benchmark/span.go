package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Start/End are ns
// since the recorder was created. Parent is the id of the phase (or rung)
// span that caused the call, -1 for a root; QID ties together the spans
// of one logical request driven through several rungs.
type span struct {
	ID     int32
	Parent int32
	QID    int32
	Name   string
	Start  int64
	End    int64
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the tracing-off state: every method is a no-op, so the untraced run
// executes the same call sites.
//
// Phase spans (few, opened by the coordinating goroutine) take the lock;
// call spans go to per-goroutine lanes obtained once with lane(), so the
// hot path is one append with no synchronisation.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	phases []span
	lanes  []*lane
}

// lane is one goroutine's private span buffer.
type lane struct {
	r     *recorder
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a phase span under parent (-1 for a root) and returns its
// id; end closes it.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.phases))
	r.phases = append(r.phases, span{ID: id, Parent: parent, QID: -1, Name: name, Start: r.now(), End: -1})
	return id
}

func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.phases[id].End = r.now()
	r.mu.Unlock()
}

func (r *recorder) lane() *lane {
	if r == nil {
		return nil
	}
	l := &lane{r: r}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// add records one call span from wall-clock endpoints the caller already
// took for its latency sample, so tracing adds an append, not a clock read.
func (l *lane) add(name string, parent, qid int32, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		Parent: parent, QID: qid, Name: name,
		Start: int64(start.Sub(l.r.t0)), End: int64(end.Sub(l.r.t0)),
	})
}

// all returns every span with final ids: phases keep theirs, call spans
// are numbered after them in start order. Open phases end now.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.phases...)
	for i := range out {
		if out[i].End < 0 {
			out[i].End = r.now()
		}
	}
	var calls []span
	for _, l := range r.lanes {
		calls = append(calls, l.spans...)
	}
	sort.SliceStable(calls, func(a, b int) bool { return calls[a].Start < calls[b].Start })
	for i := range calls {
		calls[i].ID = int32(len(out) + i)
	}
	return append(out, calls...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval covered by its children (the union, so children running
// concurrently are not subtracted twice).
func selfTimes(spans []span) map[int32]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[int32][]iv{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// rung is one step of the ledger: the same queries timed through one more
// layer than the rung below. An additive rung (the wire codec) is a cost
// the next rung contains but that does not itself contain the rung below,
// so its tax is its own span and it adds to the running total.
type rung struct {
	name     string
	additive bool
}

// ledgerRow is one printed row: the rung's median span, its tax over the
// rung below, and the running total of taxes.
type ledgerRow struct {
	name       string
	median     float64
	tax        float64
	cumulative float64
}

// ledgerTaxes computes each rung's tax as the median over query ids of
// (its span − the span of the rung below); below an additive rung sits the
// sum of that rung and the one under it. Query ids missing from a rung
// are skipped for that difference.
func ledgerTaxes(rungs []rung, spans []span) []ledgerRow {
	dur := map[string]map[int32]float64{}
	for _, s := range spans {
		if s.QID < 0 {
			continue
		}
		m := dur[s.Name]
		if m == nil {
			m = map[int32]float64{}
			dur[s.Name] = m
		}
		m[s.QID] = float64(s.End - s.Start)
	}
	values := func(m map[int32]float64) []float64 {
		v := make([]float64, 0, len(m))
		for _, d := range m {
			v = append(v, d)
		}
		return v
	}
	rows := make([]ledgerRow, len(rungs))
	var below map[int32]float64 // per-qid total of everything under the current rung
	total := 0.0
	for i, rg := range rungs {
		own := dur[rg.name]
		rows[i] = ledgerRow{name: rg.name, median: median(values(own))}
		var diffs []float64
		next := map[int32]float64{}
		for qid, d := range own {
			b, ok := below[qid]
			if below != nil && !ok {
				continue
			}
			if rg.additive {
				diffs = append(diffs, d)
				next[qid] = b + d
			} else {
				diffs = append(diffs, d-b)
				next[qid] = d
			}
		}
		rows[i].tax = median(diffs)
		total += rows[i].tax
		rows[i].cumulative = total
		below = next
	}
	return rows
}

// writeTrace stores the spans as JSON, one span per line inside the array
// so the file diffs and greps well. Hand-formatted: encoding/json reflects
// over every element, which dominates a run that holds 10^5–10^6 spans.
func writeTrace(path string, fp fingerprint, workload string, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"commit\":%q,\"go\":%q,\"nproc\":%d,\"spans\":[\n",
		workload, seed, fp.Commit, fp.GoVersion, fp.NProc)
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"qid\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}%s\n",
			s.ID, s.Parent, s.QID, s.Name, s.Start, s.End, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
