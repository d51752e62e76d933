package interval

import (
	"fmt"
	"math/bits"

	"ampsched/internal/cpu"
)

// FidelitySampled labels the two-tier engine.
const FidelitySampled = "sampled"

// Sampled-engine schedule: each period opens with a detailed window
// (real caches, predictor and pipeline back in play) and fast-forwards
// the rest with the interval model. Two window lengths exist: the
// full warm-up (DefaultDetailCycles) runs the first time a thread
// lands on a core, when the detailed core's caches hold nothing of the
// thread; the shorter re-anchor (DefaultReanchorCycles) runs at every
// scheduled period wrap, where the caches still hold the thread's aged
// state from the previous window and the job is only to re-measure IPC
// drift, not to rebuild locality. The period keeps one re-anchor per
// two paper-scale coarse scheduling intervals (the HPE/RR context
// switch is 4M cycles). The detailed duty cycle is the fig7full
// wall-clock knob: re-anchors dominate low-IPC pairs (a 500M-
// instruction run can span billions of cycles), so the re-anchor
// length, not the warm-up length, sets the sweep's wall time.
const (
	DefaultDetailCycles   = 20_000
	DefaultReanchorCycles = 5_000
	DefaultPeriodCycles   = 8_000_000
)

// Sampled is the two-tier cpu.Engine: a detailed core and an interval
// engine over the same configuration, multiplexed on a fixed cycle
// schedule. Binding always starts a detailed window — after a thread
// swap the warm-up is exactly what re-measures the cold-cache cost.
// The detailed core's caches and predictor persist across interval
// gaps, so each warm-up resumes from plausibly aged state rather than
// from scratch.
type Sampled struct {
	det *cpu.Core
	ivl *Engine

	src  cpu.InstrSource
	arch *cpu.ThreadArch

	detailCycles   uint64
	reanchorCycles uint64
	periodCycles   uint64
	pos            uint64 // position within the current period
	warmLen        uint64 // this period's detailed span: detailCycles on a cold bind, reanchorCycles after a scheduled wrap

	// warmed memoizes, per thread (ledger identity), that a full
	// detailed warm-up window has completed on this core during this
	// run: a later re-bind of the same thread — the swap ping-pong
	// case — resumes in the interval tier instead of re-running the
	// warm-up, because the detailed core's caches and predictor
	// already hold that thread's aged state from the previous bind.
	// Scheduled period-wrap warm-ups are unaffected, and Reconfigure
	// invalidates the memo (a morphed core is a different machine).
	warmed []*cpu.ThreadArch
}

var _ cpu.Engine = (*Sampled)(nil)

// NewSampled builds a sampled engine with the given schedule
// (detailCycles of warm-up opening every periodCycles).
func NewSampled(cfg *cpu.Config, detailCycles, periodCycles uint64) *Sampled {
	if detailCycles == 0 || periodCycles <= detailCycles {
		panic(fmt.Sprintf("interval: sampled schedule needs 0 < detail (%d) < period (%d)",
			detailCycles, periodCycles))
	}
	return &Sampled{
		det:            cpu.NewCore(cfg),
		ivl:            New(cfg),
		detailCycles:   detailCycles,
		reanchorCycles: detailCycles,
		periodCycles:   periodCycles,
	}
}

// SetReanchorCycles shortens the detailed window run at scheduled
// period wraps (the first window of a cold thread always runs the full
// detailCycles). NewSampled defaults the re-anchor to the full warm-up
// length.
func (s *Sampled) SetReanchorCycles(n uint64) {
	if n == 0 || n > s.detailCycles {
		panic(fmt.Sprintf("interval: re-anchor window %d outside (0, detail %d]", n, s.detailCycles))
	}
	s.reanchorCycles = n
}

// SampledFactory returns the cpu.EngineFactory for the sampled engine
// with the default schedule.
func SampledFactory() cpu.EngineFactory {
	return func(cfg *cpu.Config) (cpu.Engine, error) {
		s := NewSampled(cfg, DefaultDetailCycles, DefaultPeriodCycles)
		s.SetReanchorCycles(DefaultReanchorCycles)
		return s, nil
	}
}

// Config implements cpu.Engine.
func (s *Sampled) Config() *cpu.Config { return s.det.Config() }

// Fidelity implements cpu.Engine.
func (s *Sampled) Fidelity() string { return FidelitySampled }

// Stride implements cpu.Engine: the interval stride; detailed warm-up
// windows are run in stride-sized chunks, which is equivalent cycle by
// cycle because the two cores of a system share no state.
func (s *Sampled) Stride() uint64 { return s.ivl.Stride() }

// Bound implements cpu.Engine.
func (s *Sampled) Bound() bool { return s.arch != nil }

// Arch implements cpu.Engine.
func (s *Sampled) Arch() *cpu.ThreadArch { return s.arch }

// InFlight implements cpu.Engine.
func (s *Sampled) InFlight() int { return s.det.InFlight() + s.ivl.InFlight() }

// Bind implements cpu.Engine: a thread not yet warmed on this core
// starts in a detailed warm-up window; a re-bound thread that already
// completed one resumes in the interval tier at the top of its
// fast-forward span.
func (s *Sampled) Bind(src cpu.InstrSource, arch *cpu.ThreadArch) {
	if s.arch != nil {
		panic(fmt.Sprintf("interval: %s: Bind with thread already bound", s.Config().Name))
	}
	s.src = src
	s.arch = arch
	if s.isWarmed(arch) {
		// Resume at the top of the fast-forward span: the period wrap
		// arrives exactly when it would have had the warm-up run.
		s.pos = s.detailCycles
		s.warmLen = s.detailCycles
		s.ivl.Bind(src, arch)
		return
	}
	s.pos = 0
	s.warmLen = s.detailCycles
	s.det.Bind(src, arch)
}

// isWarmed reports whether arch completed a full warm-up this run.
func (s *Sampled) isWarmed(arch *cpu.ThreadArch) bool {
	for _, w := range s.warmed {
		if w == arch {
			return true
		}
	}
	return false
}

// markWarmed records a completed warm-up window for the bound thread.
func (s *Sampled) markWarmed(arch *cpu.ThreadArch) {
	if !s.isWarmed(arch) {
		s.warmed = append(s.warmed, arch)
	}
}

// Unbind implements cpu.Engine.
func (s *Sampled) Unbind() uint64 {
	if s.arch == nil {
		return 0
	}
	squashed := s.det.Unbind() + s.ivl.Unbind()
	s.src = nil
	s.arch = nil
	return squashed
}

// StallCycles implements cpu.Engine; the charge lands on whichever
// tier is active (Stats sums both ledgers, so placement only affects
// per-tier attribution).
//
//ampvet:hotpath
func (s *Sampled) StallCycles(n uint64) {
	if s.pos < s.warmLen {
		s.det.StallCycles(n)
	} else {
		s.ivl.StallCycles(n)
	}
}

// Run implements cpu.Engine. Whole windows that fall inside one tier
// run as a single span of that tier — up to the end of the warm-up, or
// up to the period wrap in the interval tier. A window that crosses a
// tier boundary goes through runWindow, which splits it there.
//
//ampvet:hotpath
func (s *Sampled) Run(now, window, n uint64) {
	if s.arch == nil {
		return
	}
	for n > 0 {
		detail := s.pos < s.warmLen
		end := s.periodCycles
		if detail {
			end = s.warmLen
		}
		rest := end - s.pos
		if rest < window {
			s.runWindow(now, window)
			now += window
			n--
			continue
		}
		m := n
		if hi, lo := bits.Mul64(n, window); hi != 0 || lo > rest {
			m = rest / window
		}
		span := m * window
		if detail {
			if !s.det.Bound() {
				s.ivl.Unbind()
				s.det.Bind(s.src, s.arch)
			}
			s.det.Run(now, window, m)
		} else {
			if !s.ivl.Bound() {
				s.det.Unbind()
				s.ivl.Bind(s.src, s.arch)
			}
			s.ivl.Run(now, window, m)
		}
		s.advance(span)
		now += span
		n -= m
	}
}

// runWindow runs one window, splitting it at tier boundaries and
// handing each piece to the active tier. Tier switches use the same
// unbind/bind protocol as a thread swap, so the detailed pipeline
// drains (squashing its in-flight work) before fast-forwarding.
func (s *Sampled) runWindow(now, cycles uint64) {
	for cycles > 0 {
		var step uint64
		if s.pos < s.warmLen {
			if !s.det.Bound() {
				s.ivl.Unbind()
				s.det.Bind(s.src, s.arch)
			}
			step = min(s.warmLen-s.pos, cycles)
			s.det.Run(now, step, 1)
		} else {
			if !s.ivl.Bound() {
				s.det.Unbind()
				s.ivl.Bind(s.src, s.arch)
			}
			step = min(s.periodCycles-s.pos, cycles)
			s.ivl.Run(now, step, 1)
		}
		s.advance(step)
		now += step
		cycles -= step
	}
}

// advance moves the schedule position by step cycles of the current
// tier: completing a warm-up memoizes it, and reaching the period end
// wraps into a re-anchor. Scheduled re-anchors are shorter than a cold
// warm-up because the detailed core's caches still hold this thread's
// aged state.
func (s *Sampled) advance(step uint64) {
	if s.pos < s.warmLen && s.pos+step == s.warmLen {
		s.markWarmed(s.arch)
	}
	s.pos += step
	if s.pos == s.periodCycles {
		s.pos = 0
		s.warmLen = s.reanchorCycles
	}
}

// Reach implements cpu.Engine per tier, with the tier's end as a
// horizon: the active tier's engine answers for the whole windows
// before the end of the warm-up (detailed tier) or the period wrap
// (interval tier), plus one — the last window may cross into the next
// tier, and Run splits it there. Right after a wrap or the end of a
// warm-up the tier's engine is not bound yet (the switch waits for the
// next Run), and the answer is one window.
//
//ampvet:hotpath
func (s *Sampled) Reach(window, n, edge uint64) uint64 {
	if s.arch == nil {
		return n
	}
	if s.pos < s.warmLen {
		if !s.det.Bound() {
			return 1
		}
		return s.det.Reach(window, min(n, (s.warmLen-s.pos)/window+1), edge)
	}
	if !s.ivl.Bound() {
		return 1
	}
	return s.ivl.Reach(window, min(n, (s.periodCycles-s.pos)/window+1), edge)
}

// Stats implements cpu.Engine: the merged ledgers of both tiers.
func (s *Sampled) Stats() cpu.EngineStats {
	return s.det.Stats().Add(s.ivl.Stats())
}

// Reconfigure implements cpu.Engine, forwarding to both tiers.
func (s *Sampled) Reconfigure(units [cpu.NumUnitKinds]cpu.UnitSpec) error {
	if s.arch != nil {
		return fmt.Errorf("interval: %s: Reconfigure with a bound thread", s.Config().Name)
	}
	if err := s.det.Reconfigure(units); err != nil {
		return err
	}
	// A reconfigured core is a different machine: every memoized
	// warm-up is stale.
	s.warmed = s.warmed[:0]
	return s.ivl.Reconfigure(units)
}
