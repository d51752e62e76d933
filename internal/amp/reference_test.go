package amp

import "context"

// runReference is RunContext without spans: the reference loop the
// differential tests compare RunContext against. Every non-stalled
// window is its own Run(now, stride, 1) call on each engine, the
// scheduler Ticks after every such window whatever its NextWake says,
// and every check runs after every window. The Waker contract makes
// the extra Ticks no-ops, so the two loops must agree on the Result,
// every event, both engines' ledgers and the timeline. One-window
// calls never take the interval engine's closed form, so the
// comparison also pins the closed form against the window loop.
func (s *System) runReference(ctx context.Context, limit uint64) (Result, error) {
	s.emit(Event{Kind: EventRunStart, Cycle: s.cycle})
	res, err := s.referenceLoop(ctx, limit)
	s.emit(Event{Kind: EventRunEnd, Cycle: s.cycle})
	return res, err
}

// referenceLoop is loop one window at a time, with the same checks in
// the same order.
func (s *System) referenceLoop(ctx context.Context, limit uint64) (Result, error) {
	done := ctx.Done()
	startCycle := s.cycle
	lastProgressCycle := s.cycle
	lastCommitted := s.threads[0].Arch.Committed + s.threads[1].Arch.Committed
	stride := s.stride
	for {
		if s.threads[0].Arch.Committed >= limit || s.threads[1].Arch.Committed >= limit {
			return s.result(), nil
		}
		n := stride
		if s.cycle < s.stallUntil {
			n = min(n, s.stallUntil-s.cycle)
			s.engines[0].StallCycles(n)
			s.engines[1].StallCycles(n)
		} else {
			s.engines[0].Run(s.cycle, stride, 1)
			s.engines[1].Run(s.cycle, stride, 1)
			if s.sched != nil {
				s.tick()
			}
		}
		s.cycle += n
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
