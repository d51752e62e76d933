package amp

// This file is the topology-aware half of the scheduler API: the dual
// core system of the paper is the N=2, M=2 case of an N-core, M-thread
// machine. Schedulers return explicit thread placements ([]Move)
// instead of a bare "swap now" bit, and the View describes the
// topology (core count, thread count, pools, affinity masks) so the
// same policy code drives both this package and internal/manycore.

// ParkCore is the Move.Core value that unbinds a thread from every
// core: the thread keeps its architectural state but stops executing
// (and stops drawing power) until a later Move places it again.
const ParkCore = -1

// AllPools is the affinity mask that allows a thread on every core
// pool.
const AllPools = ^uint64(0)

// Move relocates one thread: after the batch is applied, Thread runs
// on Core (or on no core at all when Core is ParkCore).
type Move struct {
	Thread int
	Core   int
}

// MoveScheduler is the unified scheduling interface. Tick is called
// once per non-stalled stride window and returns the batch of
// relocations to apply now — nil (or empty) to leave the binding
// alone. The returned slice is only read until the next Tick, so
// implementations reuse a scratch slice to stay allocation-free on the
// hot path.
//
// On the dual-core system any returned move that relocates a thread is
// interpreted as the paper's swap (both threads exchange cores and pay
// the reconfiguration overhead).
type MoveScheduler interface {
	Name() string
	// Reset prepares the scheduler for a new run over v.
	Reset(v View)
	// Tick observes the system and returns the moves to apply now.
	Tick(v View) []Move
}

// Waker is the optional scheduler capability behind the run loop's
// spans: NextWake declares the earliest point at which Tick can act.
// The contract is that Tick returns no moves and changes no state —
// not even a deferred counter read — while the cycle it observes is
// below cycle and each thread t's Committed is below committed[t].
// The run loop reads NextWake after every Tick and after Reset, and in
// between runs the engines through whole spans of stride windows
// without calling Tick at all. A scheduler that cannot promise
// anything returns zeros, or does not implement Waker; one that never
// acts on a count returns the maximum uint64 for it.
type Waker interface {
	NextWake() (cycle uint64, committed [2]uint64)
}

// movesSwap reports whether a move batch asks the dual-core system to
// exchange its threads: any well-formed move that places a thread on a
// core it does not currently occupy. Parks and out-of-range moves are
// ignored — the 2x2 system always runs both threads.
//
//ampvet:hotpath
func (s *System) movesSwap(mv []Move) bool {
	for i := range mv {
		m := mv[i]
		if m.Thread < 0 || m.Thread > 1 || m.Core < 0 || m.Core > 1 {
			continue
		}
		if s.binding[m.Core] != m.Thread {
			return true
		}
	}
	return false
}
