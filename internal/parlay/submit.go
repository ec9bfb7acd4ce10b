package parlay

// Batch submission: an asynchronous entry point into the work-stealing
// scheduler. Submit hands a slice of independent thunks to the scheduler
// and returns immediately with a Handle; Handle.Wait blocks until every
// thunk has finished, helping execute scheduler work (this batch's tasks
// first, in LIFO order) instead of idling — the same waiter-helps protocol
// Do and For use.
//
// The hook exists for callers that release a collected batch of
// independent thunks at once — internal/engine's multi-shard commit
// prepares and range-query shard fan-outs go through Submit, one scheduler
// entry rather than N goroutine round-trips. Unlike Do, the submitting
// goroutine does not run any thunk inline before returning, so it can keep
// collecting work between Submit and Wait.

// Handle tracks one submitted batch of tasks.
type Handle struct {
	s      *sched
	jn     join
	serial []func() // seqMode: deferred thunks, run inline at Wait
}

// Submit enqueues the thunks for execution on the scheduler and returns a
// Handle for awaiting them. The thunks may run on any worker (or on the
// goroutine that calls Wait); they must be independent. With GOMAXPROCS=1
// the thunks are deferred and run sequentially inside Wait, preserving the
// package-wide degradation guarantee that a single-processor run never
// touches the scheduler.
func Submit(thunks []func()) *Handle {
	h := &Handle{}
	if len(thunks) == 0 {
		return h
	}
	if seqMode() {
		h.serial = thunks
		return h
	}
	h.s = defaultSched()
	h.jn.pending.Store(int32(len(thunks)))
	if w := currentWorker(); w != nil && w.s == h.s {
		for i := len(thunks) - 1; i >= 0; i-- {
			w.spawn(&task{fn: thunks[i], j: &h.jn})
		}
		return h
	}
	ts := make([]*task, 0, len(thunks))
	for i := len(thunks) - 1; i >= 0; i-- {
		ts = append(ts, &task{fn: thunks[i], j: &h.jn})
	}
	h.s.injectTasks(ts)
	return h
}

// Wait blocks until every thunk of the batch has completed, executing
// available scheduler work on the calling goroutine while it waits. Any
// goroutine may call Wait, but only one should.
func (h *Handle) Wait() {
	if h.serial != nil {
		for _, fn := range h.serial {
			fn()
		}
		h.serial = nil
		return
	}
	if h.s == nil {
		return
	}
	if w := currentWorker(); w != nil && w.s == h.s {
		w.helpUntil(&h.jn)
		return
	}
	h.s.externalHelp(&h.jn)
}
