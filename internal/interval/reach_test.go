package interval

import (
	"testing"

	"ampsched/internal/cpu"
	"ampsched/internal/workload"
)

// replayReach asks e how many of the next n windows can run against
// edge, then runs them one at a time from now, failing if any window
// but the last ends with the thread's Committed at or past edge. It
// returns the cycle after the replayed windows.
func replayReach(t *testing.T, e cpu.Engine, now, window, n, edge uint64) uint64 {
	t.Helper()
	m := e.Reach(window, n, edge)
	if m < 1 || m > n {
		t.Fatalf("Reach(%d, %d, %d) = %d, want 1..%d", window, n, edge, m, n)
	}
	arch := e.Arch()
	for i := uint64(1); i <= m; i++ {
		e.Run(now, window, 1)
		now += window
		if i < m && arch.Committed >= edge {
			t.Fatalf("Reach allowed %d windows, but window %d reached Committed %d >= edge %d",
				m, i, arch.Committed, edge)
		}
	}
	return now
}

// runWindows runs windows one at a time from now until done reports
// true, returning the cycle reached.
func runWindows(t *testing.T, e cpu.Engine, now, window uint64, done func() bool) uint64 {
	t.Helper()
	for i := 0; !done(); i++ {
		if i == 1_000_000 {
			t.Fatal("position never reached")
		}
		e.Run(now, window, 1)
		now += window
	}
	return now
}

// setPhaseIPC replaces e's bound calibration with a copy whose phases
// run at the given IPCs.
func setPhaseIPC(e *Engine, ipc func(phase int) float64) {
	cal := *e.cal
	cal.PhaseIPC = make([]float64, len(e.cal.PhaseIPC))
	cal.MaxPhaseIPC = 0
	for p := range cal.PhaseIPC {
		cal.PhaseIPC[p] = ipc(p)
		cal.MaxPhaseIPC = max(cal.MaxPhaseIPC, cal.PhaseIPC[p])
	}
	e.cal, e.curIPC = &cal, cal.PhaseIPC[e.phase]
}

func bindGCC(e cpu.Engine) *cpu.ThreadArch {
	bench := workload.MustByName("gcc")
	arch := &cpu.ThreadArch{CodeBase: 1 << 36, CodeSize: bench.EffectiveCodeFootprint()}
	e.Bind(workload.NewGenerator(bench, 1, 0), arch)
	return arch
}

// TestReachEdgeJustPastPhaseBoundary puts the edge a few hundred
// instructions past the end of a slow phase whose successor is twelve
// times faster. The current phase's IPC bounds only the windows that
// start inside it, so Reach may not count on it past the boundary.
func TestReachEdgeJustPastPhaseBoundary(t *testing.T) {
	e := New(cpu.IntCoreConfig())
	arch := bindGCC(e)
	slow := e.phase
	setPhaseIPC(e, func(p int) float64 {
		if p == slow {
			return 0.25
		}
		return 3
	})
	const window = DefaultStride
	now := runWindows(t, e, 0, window, func() bool { return e.phaseRem < 400 })
	if e.phase != slow {
		t.Fatalf("left the slow phase %d for %d", slow, e.phase)
	}
	replayReach(t, e, now, window, 1<<20, arch.Committed+e.phaseRem+500)
}

// TestReachStopsAtPeriodWrap asks the sampled engine for a long span a
// few windows before its period wraps into a detailed re-anchor, with
// an interval calibration far slower than the detailed core: the
// interval bound holds only up to the wrap.
func TestReachStopsAtPeriodWrap(t *testing.T) {
	s := NewSampled(cpu.IntCoreConfig(), 1_000, 10_000)
	arch := bindGCC(s)
	const window = DefaultStride
	now := runWindows(t, s, 0, window, func() bool {
		return s.ivl.Bound() && s.periodCycles-s.pos < 4*window
	})
	setPhaseIPC(s.ivl, func(int) float64 { return 0.05 })
	replayReach(t, s, now, window, 64, arch.Committed+200)
}

// TestReachUnboundTier covers the windows right after a warm-up ends
// and right after a period wraps, on a schedule whose tier boundaries
// fall on window boundaries: the tier's engine is bound only by the
// next Run, so it can vouch for nothing yet.
func TestReachUnboundTier(t *testing.T) {
	const window = DefaultStride
	s := NewSampled(cpu.IntCoreConfig(), 8*window, 80*window)
	arch := bindGCC(s)
	now := runWindows(t, s, 0, window, func() bool { return s.pos == s.warmLen })
	if s.ivl.Bound() {
		t.Fatal("interval tier bound before its first Run")
	}
	now = replayReach(t, s, now, window, 64, arch.Committed+300)
	now = runWindows(t, s, now, window, func() bool { return s.pos == 0 })
	if s.det.Bound() {
		t.Fatal("detailed tier bound before its first Run")
	}
	replayReach(t, s, now, window, 64, arch.Committed+300)
}
