package engine

import (
	"errors"
	"fmt"
)

// MVCC retention: time-travel reads over the engine's own version history.
//
// Every commit already produces an immutable Snapshot; retention simply
// stops discarding them on publish. The engine keeps the last
// Options.RetainEpochs published snapshots in a ring — persistent BDL-tree
// versions share all untouched structure, so a retained epoch costs only
// the marginal trees its commit rebuilt — plus a pin table for snapshots
// callers want to keep beyond the ring's watermark. AsOf answers "the
// point set as of epoch e" for any retained or pinned epoch; Pin/PinEpoch
// and Snapshot.Release bracket long-running analytics (AllKNN, KNNGraph,
// CoreDistances) that must keep one consistent version queryable while
// live writers keep committing past it.
//
// Invariants:
//
//   - The ring holds exactly the last min(RetainEpochs, published) epochs,
//     contiguous, ending at the live epoch. EVERY published epoch passes
//     through the ring — commit publishes, the founding commit, and
//     rebalancer migrations (whose durable form is a data-free KindNote
//     record) alike — so AsOf never has a gap inside the window.
//   - A pinned epoch stays queryable indefinitely, however far the live
//     epoch advances; releasing the last pin lets it fall out of AsOf the
//     moment it is also past the ring (there is no deferred sweep to wait
//     for — the ring trim at publish time IS the GC).
//   - Pins are in-memory state only. They do not survive Close/Open: a
//     recovered engine starts with an empty pin table and a ring seeded
//     with just the recovered epoch, because only the live point set is
//     durable (the WAL can rebuild any epoch's state, but the engine does
//     not retain historical versions across restarts).
//
// Memory: Stats().RetainedBytes estimates the heap bytes held ONLY by
// retention — static-tree structure reachable from retained or pinned
// snapshots but not from the live one, shared structure counted once.

// ErrEpochNotRetained is returned (wrapped, with detail) by AsOf and
// PinEpoch for an epoch outside the retention window: never published,
// newer than the latest commit, or already trimmed by the retention GC and
// not pinned.
var ErrEpochNotRetained = errors.New("engine: epoch not retained")

// pinEntry is one pinned epoch: the snapshot kept alive and its pin
// reference count (Pin/PinEpoch increment it, Snapshot.Release decrements).
type pinEntry struct {
	snap *Snapshot
	refs int
}

// retain records a freshly published snapshot in the retention ring and
// trims unpinned versions past the watermark — this trim is the whole
// retention GC. Called wherever a snapshot is installed — publish (under
// publishMu) and the seeds of a new or recovered engine — so ring order is
// exactly epoch order and ring epochs are contiguous.
func (e *Engine) retain(next *Snapshot) {
	keep := e.opts.RetainEpochs
	if keep < 1 {
		keep = 1
	}
	e.retainMu.Lock()
	e.retained = append(e.retained, next)
	if excess := len(e.retained) - keep; excess > 0 {
		// Trimmed epochs that are pinned survive in the pin table (their
		// entries were created at Pin time and hold the snapshot); unpinned
		// ones become unreachable here. Shift in place rather than reslice
		// so the backing array cannot grow without bound.
		n := copy(e.retained, e.retained[excess:])
		clear(e.retained[n:])
		e.retained = e.retained[:n]
	}
	e.retainMu.Unlock()
}

// lookupRetained resolves a retained or pinned epoch. Caller holds
// retainMu.
func (e *Engine) lookupRetained(epoch uint64) (*Snapshot, error) {
	if n := len(e.retained); n > 0 {
		base := e.retained[0].epoch
		if epoch >= base && epoch-base < uint64(n) {
			return e.retained[epoch-base], nil
		}
	}
	if ent, ok := e.pins[epoch]; ok {
		return ent.snap, nil
	}
	window := uint64(0)
	if len(e.retained) > 0 {
		window = e.retained[0].epoch
	}
	return nil, fmt.Errorf("%w: epoch %d (retention window starts at epoch %d; see Options.RetainEpochs)",
		ErrEpochNotRetained, epoch, window)
}

// AsOf returns the snapshot published at exactly the given epoch: a
// time-travel read handle answering KNN/RangeSearch/RangeCount/AllKNN and
// the analytics jobs from the point set as it was at that commit. The
// epoch must be the live epoch, within the Options.RetainEpochs retention
// window, or pinned; anything else fails with ErrEpochNotRetained
// (errors.Is). The handle stays valid as long as the caller holds it, but
// only pinning keeps the epoch resolvable through AsOf for OTHER callers
// once it leaves the window.
func (e *Engine) AsOf(epoch uint64) (*Snapshot, error) {
	cur := e.snap.Load()
	if epoch == cur.epoch {
		return cur, nil
	}
	if epoch > cur.epoch {
		return nil, fmt.Errorf("%w: epoch %d is newer than the latest commit (epoch %d)",
			ErrEpochNotRetained, epoch, cur.epoch)
	}
	e.retainMu.Lock()
	defer e.retainMu.Unlock()
	return e.lookupRetained(epoch)
}

// Pin pins the latest committed snapshot and returns it: the snapshot's
// epoch stays resolvable through AsOf — and its versions stay out of the
// retention GC's reach — until a matching Snapshot.Release. Pin/Release
// pairs nest (an epoch is released when its last pin is); pinning is
// cheap, so bracketing every analytics job with Pin/defer Release is the
// intended idiom. Pins are in-memory only and do not survive Close/Open.
func (e *Engine) Pin() *Snapshot {
	s := e.snap.Load()
	e.retainMu.Lock()
	e.pinLocked(s)
	e.retainMu.Unlock()
	return s
}

// PinEpoch pins a retained (or already-pinned) epoch and returns its
// snapshot, failing with ErrEpochNotRetained exactly like AsOf. The
// resolve and the pin happen under one lock, so a concurrent publish
// cannot trim the epoch between them.
func (e *Engine) PinEpoch(epoch uint64) (*Snapshot, error) {
	if cur := e.snap.Load(); epoch > cur.epoch {
		return nil, fmt.Errorf("%w: epoch %d is newer than the latest commit (epoch %d)",
			ErrEpochNotRetained, epoch, cur.epoch)
	}
	e.retainMu.Lock()
	defer e.retainMu.Unlock()
	s, err := e.lookupRetained(epoch)
	if err != nil {
		return nil, err
	}
	e.pinLocked(s)
	return s, nil
}

// pinLocked increments the pin count of s's epoch. Caller holds retainMu.
func (e *Engine) pinLocked(s *Snapshot) {
	if e.pins == nil {
		e.pins = make(map[uint64]*pinEntry)
	}
	if ent, ok := e.pins[s.epoch]; ok {
		ent.refs++
		return
	}
	e.pins[s.epoch] = &pinEntry{snap: s, refs: 1}
}

// Release undoes one Pin or PinEpoch of this snapshot's epoch. When the
// last pin of the epoch is released, the epoch stops being resolvable
// through AsOf unless it is still inside the retention ring; the caller's
// own handle remains valid (snapshots are immutable) — Release only ends
// the obligation to keep the epoch findable for others. Releasing a
// snapshot that is not currently pinned panics: an unbalanced
// Pin/Release pair is a caller bug that would otherwise silently unpin
// someone else's epoch.
func (s *Snapshot) Release() {
	e := s.eng
	if e == nil {
		panic("engine: Release on a snapshot that does not belong to an engine")
	}
	e.retainMu.Lock()
	defer e.retainMu.Unlock()
	ent := e.pins[s.epoch]
	if ent == nil {
		panic("engine: Release without a matching Pin")
	}
	ent.refs--
	if ent.refs == 0 {
		delete(e.pins, s.epoch)
	}
}

// RetainWatermark returns the oldest epoch the retention ring currently
// holds (pinned epochs below it remain individually resolvable). With
// retention disabled it equals the live epoch.
func (e *Engine) RetainWatermark() uint64 {
	e.retainMu.Lock()
	defer e.retainMu.Unlock()
	if len(e.retained) == 0 {
		return e.snap.Load().epoch
	}
	return e.retained[0].epoch
}

// retainStats summarizes retention state for Stats: ring length, pinned
// epoch count, and the estimated heap bytes held only by retention —
// static-tree structure reachable from retained or pinned snapshots but
// NOT from the live snapshot, with structure shared between old versions
// counted once.
func (e *Engine) retainStats() (retained, pinned, bytes uint64) {
	live := e.snap.Load()
	e.retainMu.Lock()
	defer e.retainMu.Unlock()
	retained = uint64(len(e.retained))
	pinned = uint64(len(e.pins))
	seen := make(map[any]struct{})
	for _, t := range live.trees {
		t.MemoryFootprint(seen) // charge the live version first, for free
	}
	for _, s := range e.retained {
		if s == live {
			continue
		}
		for _, t := range s.trees {
			bytes += t.MemoryFootprint(seen)
		}
	}
	for _, ent := range e.pins {
		for _, t := range ent.snap.trees {
			bytes += t.MemoryFootprint(seen)
		}
	}
	return retained, pinned, bytes
}
