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
// Every window the loop runs belongs to a span of one or more: span
// proves how many whole windows can pass with every Tick but the
// last's a no-op (the Waker contract) and every check but the last's
// silent, and the engines run them in one call each. The last window's
// Tick, if due, and its checks then run exactly as the window-by-window
// loop would have run them, so every event, result and trace byte is
// unchanged.
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
		} else {
			m := st.span(uint64(windows-i), lastProgressCycle)
			s.engines[0].Run(s.cycle, stride, m)
			s.engines[1].Run(s.cycle, stride, m)
			s.cycle += stride * (m - 1) // the last window's start
			k = int(m)
			// The span ran, so the last window's Tick inputs are known
			// exactly: a Tick below the wake is a no-op by the Waker
			// contract and is skipped (a non-Waker's wake is 0, always
			// due).
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
					s.wakeCycle, s.wakeCommit = s.waker.NextWake()
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

// span returns how many whole stride windows, at most windows (>= 1),
// the loop may run from the current cycle before the last one's Tick
// and checks: every window but the last must skip its Tick and its
// checks silently.
//
// Window j of a span covers [cycle+j*stride, cycle+(j+1)*stride), and
// the Tick after it observes cycle+j*stride and the commit counts at
// its end. So the Ticks of windows 0..m-2 lie below the wake cycle
// when cycle+(m-1)*stride < wakeCycle+stride, and below each thread's
// commit edge when the thread's engine Reach allows m windows against
// that edge. The checks after windows 0..m-2 are skipped too, so the
// timeline, the cycle budget, the watchdog and (with a cancelable
// context) the context poll must lie beyond them, and the instruction
// limit joins each thread's edge: the limit check before each of
// windows 1..m-1 must pass. Every cycle bound has the form
// cycle+(m-1)*stride < at, so they fold into one horizon; the engines
// answer for the commit bounds, dividing only where one binds.
//
//ampvet:hotpath
func (st *Stepper) span(windows, lastProgressCycle uint64) uint64 {
	s := st.s
	cyc := s.cycle
	at := satAdd(s.wakeCycle, s.stride)
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
	if at <= cyc+s.stride {
		return 1 // a Tick or a check may be due after this window
	}
	m := windows
	if hi, lo := bits.Mul64(m-1, s.stride); hi != 0 || lo >= at-cyc {
		m = (at-cyc-1)/s.stride + 1
	}
	for c := 0; c < 2 && m > 1; c++ {
		t := s.binding[c]
		m = s.engines[c].Reach(s.stride, m, min(s.wakeCommit[t], st.limit))
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
