package parlay

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	_ "unsafe" // for go:linkname (currentWorker's label-pointer read)
)

// This file implements the work-stealing fork-join scheduler described in
// doc.go: a pool of long-lived worker goroutines, one Chase-Lev deque per
// worker, randomized stealing with idle parking, and one nested fork-join
// routine (fork) in which waiters help execute outstanding tasks instead of
// blocking while work remains.

// task is one schedulable piece of a fork: a Do thunk (fn), or else a
// loop body with its block [lo, hi), plus the join it reports to. A loop's
// pieces share its body, so forking a loop allocates no closure per block.
type task struct {
	fn     func()
	body   func(lo, hi int)
	lo, hi int
	j      *join
}

func (t *task) run() {
	if t.fn != nil {
		t.fn()
		return
	}
	t.body(t.lo, t.hi)
}

func (t *task) exec() {
	t.run()
	t.j.finish()
}

// join counts outstanding forked tasks of one fork. The completion channel
// is allocated lazily, only when a waiter actually has to block (the common
// case — the owner pops its own forks back — never pays for it).
type join struct {
	pending atomic.Int32
	donec   atomic.Pointer[chan struct{}]
}

func (j *join) done() bool { return j.pending.Load() == 0 }

func (j *join) finish() {
	if j.pending.Add(-1) == 0 {
		if cp := j.donec.Load(); cp != nil {
			close(*cp)
		}
	}
}

// wait blocks until the join completes. The re-check after installing the
// channel closes the race with a concurrent finish that loaded a nil
// channel pointer.
func (j *join) wait() {
	if j.done() {
		return
	}
	c := j.waitc()
	if j.done() {
		return
	}
	<-c
}

// waitc returns the (lazily created) completion channel for use in select.
func (j *join) waitc() chan struct{} {
	cp := j.donec.Load()
	if cp == nil {
		ch := make(chan struct{})
		if j.donec.CompareAndSwap(nil, &ch) {
			cp = &ch
		} else {
			cp = j.donec.Load()
		}
	}
	return *cp
}

// worker is one long-lived scheduler goroutine and its deque.
type worker struct {
	s      *sched
	id     int
	dq     deque
	parkc  chan struct{} // capacity 1; a token means "work may be available"
	rng    uint64
	parked bool // guarded by s.idleMu: currently on the idle stack
}

// sched is a work-stealing scheduler instance. The package-level primitives
// use a lazily started default instance sized to GOMAXPROCS (and grown if
// GOMAXPROCS is later raised — benchmark drivers sweep it in-process);
// tests construct private instances to pin the worker count.
type sched struct {
	// workersP holds the immutable worker slice; grow() swaps in a longer
	// copy so steal sweeps can read it without locks. Workers are only ever
	// added: a GOMAXPROCS decrease just leaves the extras parked (the Go
	// runtime caps running threads at the new value anyway).
	workersP atomic.Pointer[[]*worker]
	growMu   sync.Mutex
	// stopped is the workers' main-loop join: only shutdown completes it,
	// and its channel exists from the start.
	stopped join

	// inject receives tasks from goroutines that are not workers (callers
	// entering the scheduler from outside). Workers drain it when their own
	// deque is empty.
	injectMu  sync.Mutex
	inject    []*task
	injectLen atomic.Int32

	// idle is a stack of parked workers. nIdle mirrors len(idle) so the
	// fork hot path can skip the lock when nobody is parked.
	idleMu sync.Mutex
	idle   []*worker
	nIdle  atomic.Int32

	extRng atomic.Uint64 // victim seed source for non-worker helpers

	// Statistics, read by tests and benchmarks.
	steals   atomic.Int64
	tasksRun atomic.Int64
}

// workerMap maps a worker goroutine's profiler-label pointer -> *worker for
// the goroutines owned by any scheduler instance. It is written once per
// worker lifetime and read on every scheduler entry, so sync.Map's
// read-mostly optimization fits.
var workerMap sync.Map

// profLabelPtr returns the current goroutine's pprof label-set pointer by
// linking against the runtime's accessor (the hook runtime/pprof itself
// uses). Each worker installs a private label set at startup, so this
// pointer identifies the worker in a few nanoseconds — Go exposes no other
// cheap goroutine-identity primitive (parsing runtime.Stack costs ~2µs,
// three orders of magnitude more; see BenchmarkCurrentWorker). Goroutines
// that never set labels return 0, making the common external-caller check
// a single load.
//
//go:linkname profLabelPtr runtime/pprof.runtime_getProfLabel
func profLabelPtr() uintptr

// setWorkerLabel gives the calling goroutine a fresh, unique label set and
// returns its pointer for registration in workerMap. The label also tags
// the workers usefully in CPU profiles.
func setWorkerLabel() uintptr {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("parlay", "worker")))
	return profLabelPtr()
}

// currentWorker returns the scheduler worker running this goroutine, or nil
// for goroutines outside every scheduler. A user task that overwrites its
// goroutine labels merely demotes nested calls to the (slower but correct)
// external path.
func currentWorker() *worker {
	p := profLabelPtr()
	if p == 0 {
		return nil
	}
	if v, ok := workerMap.Load(p); ok {
		return v.(*worker)
	}
	return nil
}

// newSched starts a scheduler with p workers. The workers park immediately
// and cost nothing until work arrives.
func newSched(p int) *sched {
	if p < 1 {
		p = 1
	}
	s := &sched{}
	stop := make(chan struct{})
	s.stopped.pending.Store(1)
	s.stopped.donec.Store(&stop)
	s.extRng.Store(0x9e3779b97f4a7c15)
	empty := make([]*worker, 0, p)
	s.workersP.Store(&empty)
	s.grow(p)
	return s
}

// workerList returns the current worker set (immutable snapshot).
func (s *sched) workerList() []*worker { return *s.workersP.Load() }

// grow extends the pool to p workers. New workers are registered in
// workerMap before the new slice is published, so a task can never run on a
// worker that currentWorker cannot identify.
func (s *sched) grow(p int) {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	cur := s.workerList()
	if len(cur) >= p {
		return
	}
	all := make([]*worker, len(cur), p)
	copy(all, cur)
	var ready sync.WaitGroup
	for i := len(cur); i < p; i++ {
		w := &worker{s: s, id: i, parkc: make(chan struct{}, 1), rng: uint64(i)*0x9e3779b97f4a7c15 + 1}
		w.dq.init()
		all = append(all, w)
		ready.Add(1)
		go w.loop(&ready)
	}
	ready.Wait()
	s.workersP.Store(&all)
}

// shutdown stops the workers. Only tests call this; the default scheduler
// lives for the process. It must not be called while a fork-join operation
// on this scheduler is still in flight.
func (s *sched) shutdown() {
	s.stopped.finish()
}

var (
	defaultSchedOnce sync.Once
	defaultSchedPtr  atomic.Pointer[sched]
)

// defaultSched returns the process-wide scheduler, starting it on first use
// with p workers and growing the pool if GOMAXPROCS (p, read by the caller)
// has been raised since (benchmark drivers sweep thread counts in one
// process).
func defaultSched(p int) *sched {
	s := defaultSchedPtr.Load()
	if s == nil {
		defaultSchedOnce.Do(func() {
			defaultSchedPtr.Store(newSched(p))
		})
		s = defaultSchedPtr.Load()
	}
	if len(s.workerList()) < p {
		s.grow(p)
	}
	return s
}

// seqMode reports whether only one processor is available, so that a
// caller outside the pool runs its fork inline and a GOMAXPROCS(1) process
// never touches the scheduler at all.
func seqMode() bool { return runtime.GOMAXPROCS(0) == 1 }

func (w *worker) xrand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// loop is the worker main loop: help (see helpUntil) until shutdown.
func (w *worker) loop(ready *sync.WaitGroup) {
	key := setWorkerLabel()
	workerMap.Store(key, w)
	defer workerMap.Delete(key)
	ready.Done()
	w.helpUntil(&w.s.stopped)
}

// next finds a runnable task: own deque (LIFO), inject queue, then a
// randomized steal sweep over the other workers.
func (w *worker) next() *task {
	if t := w.dq.pop(); t != nil {
		return t
	}
	if t := w.s.popInject(); t != nil {
		return t
	}
	return w.trySteal(2 * len(w.s.workerList()))
}

func (w *worker) trySteal(attempts int) *task {
	ws := w.s.workerList()
	if len(ws) < 2 {
		return nil
	}
	for a := 0; a < attempts; a++ {
		v := ws[w.xrand()%uint64(len(ws))]
		if v == w {
			continue
		}
		if t := v.dq.stealFrom(); t != nil {
			w.s.steals.Add(1)
			return t
		}
	}
	return nil
}

// cancelPark removes the worker from the idle stack if it is still there;
// if a signaler already removed it, the pending wake token (if any) is
// drained so a later park is not spuriously cut short.
func (w *worker) cancelPark() {
	s := w.s
	s.idleMu.Lock()
	if w.parked {
		for i, x := range s.idle {
			if x == w {
				s.idle = append(s.idle[:i], s.idle[i+1:]...)
				break
			}
		}
		w.parked = false
		s.nIdle.Add(-1)
		s.idleMu.Unlock()
		return
	}
	s.idleMu.Unlock()
	select {
	case <-w.parkc:
	default:
	}
}

// signal wakes one parked worker, if any. Called after every fork; the
// common case (everyone busy) is a single atomic load.
func (s *sched) signal() {
	if s.nIdle.Load() == 0 {
		return
	}
	s.idleMu.Lock()
	n := len(s.idle)
	if n == 0 {
		s.idleMu.Unlock()
		return
	}
	w := s.idle[n-1]
	s.idle = s.idle[:n-1]
	w.parked = false
	s.nIdle.Add(-1)
	s.idleMu.Unlock()
	select {
	case w.parkc <- struct{}{}:
	default:
	}
}

// spawn pushes t onto the worker's own deque and wakes a parked worker to
// come steal it.
func (w *worker) spawn(t *task) {
	w.dq.push(t)
	w.s.signal()
}

// injectTasks queues ts for the workers, in reverse so that popInject
// hands them out in ascending order.
func (s *sched) injectTasks(ts []task) {
	s.injectMu.Lock()
	for i := len(ts) - 1; i >= 0; i-- {
		s.inject = append(s.inject, &ts[i])
	}
	s.injectLen.Store(int32(len(s.inject)))
	s.injectMu.Unlock()
	for range ts {
		if s.nIdle.Load() == 0 {
			break
		}
		s.signal()
	}
}

func (s *sched) popInject() *task {
	if s.injectLen.Load() == 0 {
		return nil
	}
	s.injectMu.Lock()
	n := len(s.inject)
	if n == 0 {
		s.injectMu.Unlock()
		return nil
	}
	t := s.inject[n-1]
	s.inject[n-1] = nil
	s.inject = s.inject[:n-1]
	s.injectLen.Store(int32(n - 1))
	s.injectMu.Unlock()
	return t
}

// stealAny is the steal sweep for non-worker helpers.
func (s *sched) stealAny(r *uint64) *task {
	ws := s.workerList()
	for a := 0; a < 2*len(ws); a++ {
		x := *r
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		*r = x
		if t := ws[x%uint64(len(ws))].dq.stealFrom(); t != nil {
			s.steals.Add(1)
			return t
		}
	}
	return nil
}

// entry decides where a fork from the calling goroutine runs. A worker
// forks on its own scheduler without re-reading GOMAXPROCS: it runs only
// because an entry went parallel. A goroutine outside the pool forks on
// the default scheduler, or, when GOMAXPROCS is 1, gets a nil scheduler
// and runs the fork inline.
func entry() (*sched, *worker) {
	if w := currentWorker(); w != nil {
		return w.s, w
	}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return defaultSched(p), nil
	}
	return nil, nil
}

// fork is the one fork-join routine: it runs the pieces ts on s and
// returns when all have finished. ts[0] runs inline. A worker w of s
// pushes the rest onto its own deque in reverse, so it pops them back in
// ascending order (a cache-friendly sweep, and the work-first discipline
// that makes nested Do cheap) while thieves steal descending from the far
// end. A goroutine outside the pool (w == nil) gives them to the inject
// queue. Either then helps until the join resolves.
func (s *sched) fork(w *worker, ts []task) {
	jn := new(join)
	jn.pending.Store(int32(len(ts) - 1))
	rest := ts[1:]
	for i := range rest {
		rest[i].j = jn
	}
	if w != nil {
		for i := len(rest) - 1; i >= 0; i-- {
			w.spawn(&rest[i])
		}
		ts[0].run()
		w.helpUntil(jn)
		return
	}
	s.injectTasks(rest)
	ts[0].run()
	s.externalHelp(jn)
}

// helpUntil runs tasks — own deque first, then inject, then steals — until
// jn completes. When no task is available anywhere, the worker parks on the
// idle stack with the join's completion channel armed, so it wakes for
// whichever comes first: new stealable work or the join finishing. Helping
// may execute unrelated tasks on this goroutine's stack; that is the
// standard work-stealing trade (Cilk, parlay, rayon all make it) and keeps
// every processor busy while any work exists.
func (w *worker) helpUntil(jn *join) {
	s := w.s
	for !jn.done() {
		if t := w.next(); t != nil {
			s.tasksRun.Add(1)
			t.exec()
			continue
		}
		// Publish idleness, then re-check: a forker that missed us on its
		// nIdle fast path must find either our idle entry or our re-check.
		s.idleMu.Lock()
		s.idle = append(s.idle, w)
		w.parked = true
		s.nIdle.Add(1)
		s.idleMu.Unlock()
		// Install the completion channel BEFORE the final done re-check:
		// a finisher that misses the channel is then guaranteed to have
		// decremented pending before our re-check, so we never block on a
		// channel nobody will close.
		donec := jn.waitc()
		if jn.done() {
			w.cancelPark()
			return
		}
		if t := w.next(); t != nil {
			w.cancelPark()
			s.tasksRun.Add(1)
			t.exec()
			continue
		}
		select {
		case <-w.parkc:
			w.cancelPark() // tolerate spurious tokens; re-sweep for work
		case <-donec:
			w.cancelPark()
			return
		}
	}
}

// externalHelp is helpUntil for a goroutine outside the pool: it runs
// tasks from the inject queue and steals (any goroutine may steal),
// blocking on the join only when no work is left anywhere.
func (s *sched) externalHelp(jn *join) {
	r := s.extRng.Add(0x9e3779b97f4a7c15)
	for !jn.done() {
		if t := s.popInject(); t != nil {
			s.tasksRun.Add(1)
			t.exec()
			continue
		}
		if t := s.stealAny(&r); t != nil {
			s.tasksRun.Add(1)
			t.exec()
			continue
		}
		jn.wait()
		return
	}
}
