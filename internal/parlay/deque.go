package parlay

import "sync/atomic"

// deque is a Chase-Lev work-stealing deque of scheduler tasks (Chase & Lev,
// "Dynamic Circular Work-Stealing Deque", SPAA 2005, with the memory-order
// fixes of Lê et al., PPoPP 2013). The owning worker pushes and pops at the
// bottom (LIFO, so it executes its own most-recently-forked task next, which
// keeps the working set cache-hot); thieves steal from the top (FIFO, so a
// thief takes the oldest — and in divide-and-conquer workloads the largest —
// outstanding task, amortizing the steal over the most work).
//
// Go's sync/atomic operations are sequentially consistent, which is strictly
// stronger than the acquire/release fences the published algorithm needs, so
// the classic correctness argument carries over directly. Buffer slots are
// themselves atomic pointers because a thief may read a slot that the owner
// concurrently overwrites after index wrap-around; the CAS on top decides
// who owns the task, and a loser discards its (possibly stale) read.
type deque struct {
	top    atomic.Int64 // next index to steal from
	bottom atomic.Int64 // next index to push to
	buf    atomic.Pointer[dqBuf]
}

// dqBuf is a power-of-two circular buffer. Grown copies share task pointers
// with their predecessor; stale thieves that still hold the old buffer read
// the same logical entries there, so growth never invalidates a steal.
type dqBuf struct {
	mask  uint64
	slots []atomic.Pointer[task]
}

const dequeInitialSize = 256

func newDqBuf(size int) *dqBuf {
	return &dqBuf{mask: uint64(size - 1), slots: make([]atomic.Pointer[task], size)}
}

func (d *deque) init() { d.buf.Store(newDqBuf(dequeInitialSize)) }

// push appends t at the bottom. Only the owning worker may call push.
func (d *deque) push(t *task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	buf := d.buf.Load()
	if b-tp >= int64(len(buf.slots)) {
		buf = d.grow(buf, tp, b)
	}
	buf.slots[uint64(b)&buf.mask].Store(t)
	d.bottom.Store(b + 1)
}

// grow doubles the buffer, copying the live range [tp, b). Only the owner
// grows, and only from push, so the live range cannot move concurrently.
func (d *deque) grow(old *dqBuf, tp, b int64) *dqBuf {
	nb := newDqBuf(2 * len(old.slots))
	for i := tp; i < b; i++ {
		nb.slots[uint64(i)&nb.mask].Store(old.slots[uint64(i)&old.mask].Load())
	}
	d.buf.Store(nb)
	return nb
}

// pop removes and returns the bottom task, or nil when the deque is empty.
// Only the owning worker may call pop. When exactly one task remains, owner
// and thieves race on top; the CAS arbitrates.
func (d *deque) pop() *task {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	tp := d.top.Load()
	if tp > b {
		// Deque was empty: undo the decrement.
		d.bottom.Store(b + 1)
		return nil
	}
	buf := d.buf.Load()
	slot := &buf.slots[uint64(b)&buf.mask]
	t := slot.Load()
	if tp == b {
		// Last element: race thieves for it.
		if !d.top.CompareAndSwap(tp, tp+1) {
			t = nil // a thief won
		}
		d.bottom.Store(b + 1)
	}
	if t != nil {
		// Clear the vacated slot so the completed task (and everything its
		// closure captures) becomes collectable while the deque idles. Safe:
		// a concurrent thief either already lost the CAS arbitration above
		// or, having observed bottom <= b, refused to touch index b at all.
		slot.Store(nil)
	}
	return t
}

// steal removes and returns the top task. It returns (nil, true) when the
// CAS lost to a concurrent steal or pop — the caller may retry — and
// (nil, false) when the deque is empty. Any goroutine may call steal.
func (d *deque) steal() (*task, bool) {
	tp := d.top.Load()
	b := d.bottom.Load()
	if tp >= b {
		return nil, false
	}
	buf := d.buf.Load()
	slot := &buf.slots[uint64(tp)&buf.mask]
	t := slot.Load()
	if !d.top.CompareAndSwap(tp, tp+1) {
		return nil, true
	}
	// Winning the CAS grants exclusive ownership of index tp; clear it so
	// the stolen task doesn't linger in the buffer (stale readers of this
	// slot will fail their own CAS and discard what they loaded). Clear only
	// if the slot still holds t: once top has moved past tp the owner may
	// wrap around and push a new task into this slot before a descheduled
	// thief gets here, and a plain store would erase that task for good.
	slot.CompareAndSwap(t, nil)
	return t, false
}

// stealFrom steals with bounded retries on CAS contention.
func (d *deque) stealFrom() *task {
	for i := 0; i < 4; i++ {
		t, retry := d.steal()
		if t != nil {
			return t
		}
		if !retry {
			return nil
		}
	}
	return nil
}
