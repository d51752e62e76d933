package amp

import (
	"context"
	"math"
	"math/bits"
)

// RunContext is Run with cooperative cancellation: when ctx is
// canceled the run stops at the next check point and returns the
// partial Result with ctx.Err() — a flagged early return, not a wedge
// (errors.Is(err, ErrWedged) is false). A context that can never be
// canceled costs the loop one nil comparison per window.
//
// The loop advances in engine-stride windows — one cycle for detailed
// cores, 128 for the analytic engines — and the scheduler may act only
// at a window boundary. Between the boundaries where it can act (its
// Waker wakes), each engine runs a whole span of windows in one call.
// Running one core's span before the other's is equivalent to
// interleaving them cycle by cycle because the cores share no state —
// their only coupling is the scheduler.
//
// Every window the loop runs belongs to a span of one or more: span
// proves how many whole windows can pass with every Tick but the
// last's a no-op (the Waker contract) and every check but the last's
// silent, and the engines run them in one call each. The last window's
// Tick, if due, and its checks then run exactly as the window-by-window
// loop would have run them, so every event, result and trace byte is
// unchanged.
func (s *System) RunContext(ctx context.Context, limit uint64) (Result, error) {
	s.emit(Event{Kind: EventRunStart, Cycle: s.cycle})
	res, err := s.loop(ctx, limit)
	s.emit(Event{Kind: EventRunEnd, Cycle: s.cycle})
	return res, err
}

// loop runs the system to completion — limit reached, context
// canceled, or wedged — and returns the result snapshot with
// RunContext's error contract: ctx.Err() for a cancellation, a
// *WedgedError for a watchdog or budget abort, nil for a completed
// run.
//
//ampvet:hotpath
func (s *System) loop(ctx context.Context, limit uint64) (Result, error) {
	done := ctx.Done()
	startCycle := s.cycle
	lastProgressCycle := s.cycle
	lastCommitted := s.threads[0].Arch.Committed + s.threads[1].Arch.Committed
	stride := s.stride
	for {
		if s.threads[0].Arch.Committed >= limit || s.threads[1].Arch.Committed >= limit {
			return s.result(), nil
		}
		n := stride // the length of the iteration's last window
		adv := stride
		if s.cycle < s.stallUntil {
			if remain := s.stallUntil - s.cycle; remain < n {
				n = remain
			}
			adv = n
			s.engines[0].StallCycles(n)
			s.engines[1].StallCycles(n)
		} else {
			m := s.span(limit, startCycle, lastProgressCycle, done != nil)
			s.engines[0].Run(s.cycle, stride, m)
			s.engines[1].Run(s.cycle, stride, m)
			s.cycle += stride * (m - 1) // the last window's start
			// The span ran, so the last window's Tick inputs are known
			// exactly: a Tick below the wake is a no-op by the Waker
			// contract and is skipped (a non-Waker's wake is 0, always
			// due).
			if s.sched != nil && (s.cycle >= s.wakeCycle ||
				s.threads[0].Arch.Committed >= s.wakeCommit[0] ||
				s.threads[1].Arch.Committed >= s.wakeCommit[1]) {
				s.tick()
				if s.waker != nil {
					s.wakeCycle, s.wakeCommit = s.waker.NextWake()
				}
			}
		}
		s.cycle += adv
		if s.timeline != nil && s.cycle >= s.timeline.next {
			s.recordTimeline()
		}

		if done != nil && s.cycle&ctxCheckMask < n {
			select {
			case <-done:
				s.emit(Event{Kind: EventCanceled, Cycle: s.cycle})
				return s.result(), ctx.Err()
			default:
			}
		}
		if s.cfg.CycleBudget > 0 && s.cycle-startCycle >= s.cfg.CycleBudget {
			werr := &WedgedError{
				Cycle: s.cycle, Window: s.cfg.CycleBudget,
				Reason: "cycle budget exhausted", Detail: s.stateDump(),
			}
			s.emit(Event{Kind: EventWedged, Cycle: s.cycle, Reason: werr.Reason})
			return s.result(), werr
		}
		if s.cycle-lastProgressCycle >= s.cfg.WatchdogCycles {
			total := s.threads[0].Arch.Committed + s.threads[1].Arch.Committed
			if total == lastCommitted {
				werr := &WedgedError{
					Cycle: s.cycle, Window: s.cfg.WatchdogCycles,
					Reason: "no commit progress", Detail: s.stateDump(),
				}
				s.emit(Event{Kind: EventWedged, Cycle: s.cycle, Reason: werr.Reason})
				return s.result(), werr
			}
			lastCommitted = total
			lastProgressCycle = s.cycle
			s.emit(Event{Kind: EventWatchdogReset, Cycle: s.cycle})
		}
	}
}

// tick runs the scheduler's Tick for the window that just ran and
// applies its answer: a swap, or else the morph policy's verdict.
//
//ampvet:hotpath
func (s *System) tick() {
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
}

// span returns how many whole stride windows (>= 1) the loop may run
// from the current cycle before the last one's Tick and checks: every
// window but the last must skip its Tick and its checks silently.
//
// Window j of a span covers [cycle+j*stride, cycle+(j+1)*stride), and
// the Tick after it observes cycle+j*stride and the commit counts at
// its end. So the Ticks of windows 0..m-2 lie below the wake cycle
// when cycle+(m-1)*stride < wakeCycle+stride, and below each thread's
// commit edge when the thread's engine Reach allows m windows against
// that edge. The checks after windows 0..m-2 are skipped too, so the
// timeline, the cycle budget, the watchdog and (with a cancelable
// context, poll) the context poll must lie beyond them, and the
// instruction limit joins each thread's edge: the limit check before
// each of windows 1..m-1 must pass. Every cycle bound has the form
// cycle+(m-1)*stride < at, so they fold into one horizon; the engines
// answer for the commit bounds, dividing only where one binds.
//
//ampvet:hotpath
func (s *System) span(limit, startCycle, lastProgressCycle uint64, poll bool) uint64 {
	cyc := s.cycle
	at := satAdd(s.wakeCycle, s.stride)
	if s.timeline != nil {
		at = min(at, s.timeline.next)
	}
	if s.cfg.CycleBudget > 0 {
		at = min(at, satAdd(startCycle, s.cfg.CycleBudget))
	}
	at = min(at, satAdd(lastProgressCycle, s.cfg.WatchdogCycles))
	if poll {
		// The poll fires after the first window ending at or past the
		// next multiple of the poll period.
		at = min(at, (cyc|ctxCheckMask)+1)
	}
	if at <= cyc+s.stride {
		return 1 // a Tick or a check may be due after this window
	}
	m := (at-cyc-1)/s.stride + 1
	for c := 0; c < 2 && m > 1; c++ {
		t := s.binding[c]
		m = s.engines[c].Reach(s.stride, m, min(s.wakeCommit[t], limit))
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
