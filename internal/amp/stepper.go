package amp

import (
	"context"
	"math"
	"math/bits"
)

// Stepper is the resumable core of RunContext: it advances a system
// toward an instruction limit one batch of stride-windows at a time,
// carrying the watchdog, cycle-budget and cancellation bookkeeping
// across calls. Batched sweep drivers interleave many pairs' steppers
// round-robin so one pass shares the phase/calibration tables' cache
// residency across pairs instead of each run streaming them alone;
// RunContext is a single stepper driven to completion.
//
// The loop advances in engine-stride windows — one cycle for detailed
// cores, 128 for the analytic engines — and the scheduler may act only
// at a window boundary. Between the boundaries where it can act (its
// Waker wakes), each engine runs a whole span of windows in one call.
// Running one core's span before the other's is equivalent to
// interleaving them cycle by cycle because the cores share no state —
// their only coupling is the scheduler.
type Stepper struct {
	s     *System
	ctx   context.Context
	done  <-chan struct{}
	limit uint64

	startCycle        uint64 //ampvet:unit cycles
	lastProgressCycle uint64 //ampvet:unit cycles
	lastCommitted     uint64 //ampvet:unit instructions

	finished bool
	res      Result
	err      error
}

// NewStepper starts a resumable run toward limit, emitting the
// run-start event immediately (exactly as RunContext does). Drive it
// with Step until it reports completion, then read Result.
func (s *System) NewStepper(ctx context.Context, limit uint64) *Stepper {
	st := &Stepper{}
	st.init(s, ctx, limit)
	return st
}

// Reset re-arms the stepper against s's current state, exactly as
// NewStepper would a fresh one: batch drivers keep stepper values in
// pooled per-run scratch instead of allocating one per run.
func (st *Stepper) Reset(s *System, ctx context.Context, limit uint64) {
	st.init(s, ctx, limit)
}

// init arms the stepper against s's current state. Split from
// NewStepper so RunContext can keep its stepper on the stack.
func (st *Stepper) init(s *System, ctx context.Context, limit uint64) {
	st.s = s
	st.ctx = ctx
	st.done = ctx.Done()
	st.limit = limit
	st.startCycle = s.cycle
	st.lastProgressCycle = s.cycle
	st.lastCommitted = s.threads[0].Arch.Committed + s.threads[1].Arch.Committed
	st.finished = false
	st.res = Result{}
	st.err = nil
	s.emit(Event{Kind: EventRunStart, Cycle: s.cycle})
}

// Done reports whether the run has completed.
func (st *Stepper) Done() bool { return st.finished }

// System returns the system this stepper drives.
func (st *Stepper) System() *System { return st.s }

// Result returns the run outcome; valid once Step has returned true.
// The error carries the same contract as RunContext: ctx.Err() for a
// cancellation, a *WedgedError for a watchdog or budget abort, nil for
// a completed run.
func (st *Stepper) Result() (Result, error) { return st.res, st.err }

// finish records the terminal outcome and emits the run-end event
// (after the result snapshot, preserving RunContext's event order).
func (st *Stepper) finish(res Result, err error) bool {
	st.res, st.err = res, err
	st.finished = true
	st.s.emit(Event{Kind: EventRunEnd, Cycle: st.s.cycle})
	return true
}

// Step advances the system by at most windows stride-windows and
// reports whether the run completed (limit reached, context canceled,
// or wedged). Calling Step after completion is a no-op returning true.
//
// Between scheduler decisions the loop runs spans: span proves how
// many whole windows can pass with every Tick a no-op (the Waker
// contract) and every per-window check silent, and the engines run
// them in one call each. The checks then run once, for the span's last
// window, exactly as the window-by-window loop would have run them, so
// every event, result and trace byte is unchanged.
//
//ampvet:hotpath
func (st *Stepper) Step(windows int) bool {
	if st.finished {
		return true
	}
	// Hoist the per-window bookkeeping into locals so the loop keeps
	// them in registers; the mutable ones are written back on the
	// not-done return path (terminal paths capture them in finish).
	s := st.s
	limit := st.limit
	done := st.done
	startCycle := st.startCycle
	lastProgressCycle := st.lastProgressCycle
	lastCommitted := st.lastCommitted
	stride := s.stride
	for i := 0; i < windows; {
		if s.threads[0].Arch.Committed >= limit || s.threads[1].Arch.Committed >= limit {
			return st.finish(s.result(), nil)
		}
		n := stride // the length of the iteration's last window
		adv := stride
		k := 1 // windows this iteration runs
		if s.cycle < s.stallUntil {
			if remain := s.stallUntil - s.cycle; remain < n {
				n = remain
			}
			adv = n
			s.engines[0].StallCycles(n)
			s.engines[1].StallCycles(n)
		} else if m := st.span(uint64(windows-i), lastProgressCycle); m > 0 {
			s.engines[0].Run(s.cycle, stride, m)
			s.engines[1].Run(s.cycle, stride, m)
			adv = stride * m
			k = int(m)
		} else {
			s.engines[0].Run(s.cycle, stride, 1)
			s.engines[1].Run(s.cycle, stride, 1)
			// The window ran, so its Tick's inputs are known exactly: a
			// Tick below the wake is a no-op by the Waker contract and
			// is skipped (a non-Waker's wake is 0, always due).
			if s.sched != nil && (s.cycle >= s.wakeCycle ||
				s.threads[0].Arch.Committed >= s.wakeCommit[0] ||
				s.threads[1].Arch.Committed >= s.wakeCommit[1]) {
				if mv := s.sched.Tick(s); len(mv) != 0 && s.movesSwap(mv) {
					s.requestSwap()
				} else if s.morphPol != nil {
					switch act, strong := s.morphPol.MorphTick(s); {
					case act == MorphOn && !s.morphed:
						s.morph(true, strong)
					case act == MorphOff && s.morphed:
						s.morph(false, -1)
					}
				}
				if s.waker != nil {
					edges := s.wakeCommit
					s.wakeCycle, s.wakeCommit = s.waker.NextWake()
					if s.wakeCommit != edges {
						s.nearEdge = false
					}
				}
			}
		}
		s.cycle += adv
		i += k
		if s.timeline != nil && s.cycle >= s.timeline.next {
			s.recordTimeline()
		}

		if done != nil && s.cycle&ctxCheckMask < n {
			select {
			case <-done:
				s.emit(Event{Kind: EventCanceled, Cycle: s.cycle})
				return st.finish(s.result(), st.ctx.Err())
			default:
			}
		}
		if s.cfg.CycleBudget > 0 && s.cycle-startCycle >= s.cfg.CycleBudget {
			werr := &WedgedError{
				Cycle: s.cycle, Window: s.cfg.CycleBudget,
				Reason: "cycle budget exhausted", Detail: s.stateDump(),
			}
			s.emit(Event{Kind: EventWedged, Cycle: s.cycle, Reason: werr.Reason})
			return st.finish(s.result(), werr)
		}
		if s.cycle-lastProgressCycle >= s.cfg.WatchdogCycles {
			total := s.threads[0].Arch.Committed + s.threads[1].Arch.Committed
			if total == lastCommitted {
				werr := &WedgedError{
					Cycle: s.cycle, Window: s.cfg.WatchdogCycles,
					Reason: "no commit progress", Detail: s.stateDump(),
				}
				s.emit(Event{Kind: EventWedged, Cycle: s.cycle, Reason: werr.Reason})
				return st.finish(s.result(), werr)
			}
			lastCommitted = total
			lastProgressCycle = s.cycle
			s.emit(Event{Kind: EventWatchdogReset, Cycle: s.cycle})
		}
	}
	st.lastProgressCycle = lastProgressCycle
	st.lastCommitted = lastCommitted
	return false
}

// span returns how many whole stride windows, at most windows, the
// loop may run from the current cycle without calling Tick or running
// a check. 0 means the next window must go through Tick.
//
// Window j of a span covers [cycle+j*stride, cycle+(j+1)*stride). The
// Tick it skips would observe cycle+j*stride and, on each thread, at
// most (j+1) engine MaxCommit bounds past today's count, so every
// skipped Tick must lie below the scheduler's wake cycle and commit
// edges. The checks after windows 0..m-2 are skipped too, so the
// instruction limit, the timeline, the cycle budget, the watchdog and
// (with a cancelable context) the context poll must all lie beyond
// them; the last window's checks run after the span as usual. Every
// cycle bound has the form cycle+(m-1)*stride < at, so they fold into
// one horizon. Divisions run only where a bound binds: the common
// short-circuits are a compare (Proposed near an edge) and a multiply.
//
//ampvet:hotpath
func (st *Stepper) span(windows, lastProgressCycle uint64) uint64 {
	s := st.s
	cyc := s.cycle
	if cyc >= s.wakeCycle || s.nearEdge {
		return 0
	}
	m := windows
	for c := 0; c < 2; c++ {
		t := s.binding[c]
		committed := s.threads[t].Arch.Committed
		edge := s.wakeCommit[t]
		if committed >= edge {
			s.nearEdge = true
			return 0
		}
		mc := s.engines[c].MaxCommit(s.stride)
		if mc == 0 {
			continue
		}
		// After m windows the thread has committed at most m*mc more:
		// the Tick after the last one must stay below the edge, and the
		// limit check before the last one below the limit (the caller
		// checked committed < limit). Only the edge, or an engine that
		// claims no bound yet, can leave less room than one bound.
		room := min(edge-1-committed, satAdd(st.limit-1-committed, mc))
		if mc > room {
			s.nearEdge = mc != math.MaxUint64
			return 0
		}
		if hi, lo := bits.Mul64(m, mc); hi != 0 || lo > room {
			m = room / mc
		}
	}
	at := s.wakeCycle
	if s.timeline != nil {
		at = min(at, s.timeline.next)
	}
	if s.cfg.CycleBudget > 0 {
		at = min(at, satAdd(st.startCycle, s.cfg.CycleBudget))
	}
	at = min(at, satAdd(lastProgressCycle, s.cfg.WatchdogCycles))
	if st.done != nil {
		// The poll fires after the first window ending at or past the
		// next multiple of the poll period.
		at = min(at, (cyc|ctxCheckMask)+1)
	}
	if at <= cyc {
		return 1 // a check is due after this window (never the wake: checked above)
	}
	if hi, lo := bits.Mul64(m-1, s.stride); hi != 0 || lo >= at-cyc {
		m = (at-cyc-1)/s.stride + 1
	}
	return m
}

// satAdd is a + b, saturating at the largest uint64.
func satAdd(a, b uint64) uint64 {
	if sum, carry := bits.Add64(a, b, 0); carry == 0 {
		return sum
	}
	return math.MaxUint64
}
