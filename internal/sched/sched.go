// Package sched implements the thread-to-core scheduling policies
// compared in the paper:
//
//   - Proposed: the fine-grained hardware scheme of §VI — composition
//     monitors over 1000-instruction commit windows, the Fig. 5
//     threshold rules, a 5-deep majority history vote, and a forced
//     fairness swap every 2 ms when both threads share a flavor.
//   - HPE: the coarse-grained estimation scheme of §V (Srinivasan et
//     al.), deciding once per 2 ms context switch from a profiled
//     IPC/Watt ratio matrix or regression surface.
//   - RoundRobin: unconditional swap every context-switch interval.
//   - Static: never swap (the baseline thread-to-core assignment).
//
// All schedulers implement amp.MoveScheduler and are driven by the AMP
// system's per-cycle Tick.
package sched

import (
	"ampsched/internal/amp"
	"ampsched/internal/telemetry"
)

// DefaultRetryBackoffCycles is the initial hold-off after a scheduler
// observes its swap request dropped by the reconfiguration controller.
const DefaultRetryBackoffCycles = 25_000

// retryState implements the retry-with-backoff contract of
// amp.View.SwapFailures: when the failure counter advances, the
// scheduler holds off further swap requests for an exponentially
// growing window (reset by the first successful swap) instead of
// hammering a controller that is refusing reconfigurations.
type retryState struct {
	base    uint64
	max     uint64
	backoff uint64 // current hold-off width; 0 when healthy
	until   uint64 // no requests before this cycle

	seenFailures uint64
	seenSwap     uint64
	failed       uint64 // total dropped requests observed

	// retries counts armed backoffs for telemetry (nil = disabled).
	// Assigned after reset, which zeroes the whole struct.
	retries *telemetry.Counter
}

// reset arms the state against the view's current counters.
func (r *retryState) reset(base, max uint64, v amp.View) {
	if base == 0 {
		base = DefaultRetryBackoffCycles
	}
	if max < base {
		max = base * 64
	}
	*r = retryState{base: base, max: max,
		seenFailures: v.SwapFailures(), seenSwap: v.LastSwapCycle()}
}

// observe folds in the view's swap counters; call once per decision
// point, before consulting holdoff.
func (r *retryState) observe(v amp.View) {
	if sc := v.LastSwapCycle(); sc != r.seenSwap {
		// A swap went through: the controller is healthy again.
		r.seenSwap = sc
		r.backoff = 0
		r.until = 0
	}
	if f := v.SwapFailures(); f != r.seenFailures {
		r.failed += f - r.seenFailures
		r.seenFailures = f
		r.retries.Inc()
		if r.backoff == 0 {
			r.backoff = r.base
		} else if r.backoff < r.max {
			r.backoff *= 2
			if r.backoff > r.max {
				r.backoff = r.max
			}
		}
		r.until = v.Cycle() + r.backoff
	}
}

// holdoff reports whether swap requests are currently suppressed.
func (r *retryState) holdoff(cycle uint64) bool { return cycle < r.until }

// coreIndexes returns (intCore, fpCore) by configuration name,
// defaulting to (0, 1) if the names are not the canonical "INT"/"FP".
func coreIndexes(v amp.View) (intCore, fpCore int) {
	intCore, fpCore = 0, 1
	for c := 0; c < 2; c++ {
		switch v.CoreConfig(c).Name {
		case "INT":
			intCore = c
		case "FP":
			fpCore = c
		}
	}
	if intCore == fpCore {
		// Degenerate naming; fall back to positional convention.
		intCore, fpCore = 0, 1
	}
	return intCore, fpCore
}

// swapEmitter renders a dual-core swap decision as the Move batch of
// the unified scheduler API. The two-element scratch buffer lives in
// the embedding policy, so emitting a swap allocates nothing.
type swapEmitter struct {
	buf [2]amp.Move
}

// swap returns the move batch that exchanges the two threads of a
// dual-core system.
//
//ampvet:hotpath
func (e *swapEmitter) swap(v amp.View) []amp.Move {
	e.buf[0] = amp.Move{Thread: v.ThreadOnCore(0), Core: 1}
	e.buf[1] = amp.Move{Thread: v.ThreadOnCore(1), Core: 0}
	return e.buf[:]
}

// Static is the no-op scheduler: the initial OS assignment is kept for
// the whole run.
type Static struct{}

// Name implements amp.MoveScheduler.
func (Static) Name() string { return "static" }

// Reset implements amp.MoveScheduler.
func (Static) Reset(amp.View) {}

// Tick implements amp.MoveScheduler.
func (Static) Tick(amp.View) []amp.Move { return nil }

var _ amp.MoveScheduler = Static{}
