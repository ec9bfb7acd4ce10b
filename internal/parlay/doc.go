// Package parlay is this library's substitute for ParlayLib, the fork-join
// parallel-primitives toolkit that ParGeo builds on. It provides the small
// set of primitives every ParGeo module uses:
//
//   - nested fork-join (Do) backed by a work-stealing scheduler
//   - parallel loops with grain control (For, ForBlocked)
//   - parallel reductions (Reduce, MinIndexFloat, MaxIndexFloat)
//   - parallel prefix sums (ScanInts)
//   - parallel filtering/packing (Pack, PackIndex, Filter)
//   - parallel comparison sort (Sort) and radix sort for 64-bit keys (SortPairs)
//   - atomic priority writes (WriteMin/WriteMax) — the "reservation"
//     primitive from the paper's convex-hull algorithm
//   - deterministic random permutation (Shuffle)
//
// # The scheduler
//
// ParlayLib runs on a Cilk-style work-stealing scheduler with nested
// fork-join. This package implements the same discipline natively
// (scheduler.go, deque.go) instead of fanning out a fixed number of
// goroutines per call site, so skewed workloads — a kd-tree over clustered
// points, a merge sort whose pivots land badly — rebalance dynamically
// instead of waiting on the unluckiest block.
//
// The moving parts:
//
//   - One long-lived worker goroutine per GOMAXPROCS processor, started
//     lazily on the first parallel call and parked (idle, costing nothing)
//     whenever there is no work.
//
//   - One Chase-Lev deque of tasks per worker. The owner pushes and
//     pops at the bottom in LIFO order, so the task it just forked — whose
//     data is cache-hot — runs next; thieves steal from the top in FIFO
//     order, so a thief takes the oldest and (in divide-and-conquer trees)
//     largest outstanding task, amortizing each steal over maximal work.
//
//   - Randomized stealing: an idle worker sweeps victims in random order,
//     then parks on an idle stack. Every fork wakes one parked worker
//     (a single atomic load when nobody is parked, so a busy system pays
//     nothing for the wake protocol).
//
//   - One fork routine. Do, the loops (For, ForBlocked, and so Pack and
//     FindFirst), Reduce and ScanInts all reach the scheduler through it:
//     a fork is a slice of tasks, each a Do thunk or a loop body with its
//     block, under one join. Piece 0 runs inline; the caller then *helps*
//     until the join resolves. Do(a, b) on a worker pushes b, runs a, and
//     pops b back (the common case: no thief arrived, zero
//     synchronization beyond one CAS-free pop) or, if b was stolen, runs
//     other outstanding tasks, parking only when the whole scheduler has
//     nothing left to do. Divide-and-conquer code therefore nests Do
//     freely, with no hand-tuned depth limits; the only tuning knob is the
//     leaf grain at which recursion goes sequential.
//
//   - Where a fork runs is decided once, at entry. A worker forks on its
//     own scheduler, pushing onto its own deque, without reading
//     GOMAXPROCS: it runs only because an entry went parallel, and a
//     private scheduler's tasks keep their nested forks. Only a goroutine
//     outside the pool (the user's goroutine) reads GOMAXPROCS; it gives
//     its forks to an injection queue that workers drain, runs the first
//     piece inline, and helps by stealing — any goroutine may steal; only
//     push and pop are owner-only.
//
// # Sequential degradation
//
// Every primitive degrades to its plain sequential form when the input is
// at or below the grain size or when it is called from outside the pool
// with GOMAXPROCS 1: no tasks are created, no worker is woken, and the
// scheduler is never even started in a single-processor process. Single-thread runs therefore pay (almost)
// nothing for parallel readiness, which is the same guarantee ParlayLib
// makes and which the reproduction's sequential baselines rely on.
//
// For where this package sits in the whole system — every layer above,
// from the trees to the serving engine to the network server, funnels
// its parallelism through here — see docs/ARCHITECTURE.md at the
// repository root.
package parlay
