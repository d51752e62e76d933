package sched

import (
	"fmt"

	"ampsched/internal/amp"
	"ampsched/internal/telemetry"
)

// MorphConfig parameterizes the morphing scheduler — a simplified
// version of the policy of Rodrigues et al. [5] that this paper's
// §III positions itself against. In baseline (unmorphed) mode it
// applies the paper's Fig. 5 swap rules; when one thread's utility
// collapses (its window IPC stays under LowIPC — typically a long
// memory-bound stretch) while the other thread runs hot (> HighIPC),
// it morphs the cores into a strong+weak pair and gives the hot
// thread the strong core. When the parked thread recovers, it
// unmorphs.
type MorphConfig struct {
	// Base supplies the swap rules and the monitoring window.
	Base ProposedConfig
	// LowIPC: a thread whose window IPC stays below this is a
	// candidate to be parked on the weak core.
	LowIPC float64
	// HighIPC: the partner must exceed this to justify morphing.
	HighIPC float64
	// ConsecWindows of agreement required before morphing (and, with
	// hysteresis, before unmorphing).
	ConsecWindows int
	// RecoveryFactor: unmorph when the parked thread's window IPC
	// exceeds LowIPC*RecoveryFactor.
	RecoveryFactor float64
	// MinMorphCycles prevents immediate unmorphing.
	MinMorphCycles uint64
}

// DefaultMorphConfig returns a conservative operating point.
func DefaultMorphConfig() MorphConfig {
	return MorphConfig{
		Base:           DefaultProposedConfig(),
		LowIPC:         0.12,
		HighIPC:        0.50,
		ConsecWindows:  3,
		RecoveryFactor: 2.0,
		MinMorphCycles: 100_000,
	}
}

// Validate reports the first problem with the configuration.
func (c *MorphConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.LowIPC <= 0 || c.HighIPC <= c.LowIPC {
		return fmt.Errorf("sched: morph: need 0 < LowIPC < HighIPC, got %g, %g", c.LowIPC, c.HighIPC)
	}
	if c.ConsecWindows <= 0 {
		return fmt.Errorf("sched: morph: non-positive ConsecWindows")
	}
	if c.RecoveryFactor <= 1 {
		return fmt.Errorf("sched: morph: RecoveryFactor must exceed 1")
	}
	return nil
}

// Morphing implements amp.MoveScheduler (swap rules via an embedded
// Proposed) and amp.MorphPolicy (morph decisions).
type Morphing struct {
	cfg      MorphConfig
	proposed *Proposed

	// Per-thread window-IPC monitors.
	lastCommit [2]uint64
	lastCycle  [2]uint64
	nextEdge   [2]uint64
	winIPC     [2]float64
	haveIPC    [2]bool

	morphed        bool
	strongThread   int
	morphStart     uint64
	consecOn       int
	consecOff      int
	closedThisTick bool

	// morphs counts the MorphOn ([0]) and MorphOff ([1]) decisions
	// since Reset, and published the part of them already added to
	// tel, their shared counters (nil when telemetry is disabled).
	morphs, published [2]uint64
	tel               *[2]*telemetry.Counter
}

// NewMorphing builds the scheduler. Options are shared with the
// embedded Proposed scheme (its counters appear under
// "sched.proposed.*"); the morph decisions themselves are counted as
// "sched.morphing.morph_ons"/"morph_offs".
func NewMorphing(cfg MorphConfig, opts ...Option) *Morphing {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o := buildOptions(opts)
	return &Morphing{cfg: cfg, proposed: NewProposed(cfg.Base, opts...),
		tel: telemetry.Handles(o.tel, "sched.morphing", func(t *telemetry.Telemetry) *[2]*telemetry.Counter {
			return &[2]*telemetry.Counter{t.Counter("sched.morphing.morph_ons"),
				t.Counter("sched.morphing.morph_offs")}
		})}
}

// Name implements amp.MoveScheduler.
func (m *Morphing) Name() string { return "morphing" }

// MorphCount returns how many times the policy requested MorphOn since
// Reset.
func (m *Morphing) MorphCount() uint64 { return m.morphs[0] }

// Reset implements amp.MoveScheduler.
func (m *Morphing) Reset(v amp.View) {
	m.proposed.Reset(v)
	for t := 0; t < 2; t++ {
		arch := v.Arch(t)
		m.lastCommit[t] = arch.Committed
		m.lastCycle[t] = v.Cycle()
		m.nextEdge[t] = arch.Committed + m.cfg.Base.WindowSize
		m.haveIPC[t] = false
	}
	m.morphed = false
	m.consecOn = 0
	m.consecOff = 0
	m.morphs, m.published = [2]uint64{}, [2]uint64{}
}

// SchedStats implements amp.StatsReporter.
func (m *Morphing) SchedStats() amp.SchedulerStats { return m.proposed.SchedStats() }

// PublishCounts implements amp.CountPublisher: the embedded Proposed's
// counts, then the morph decisions' since the last publish.
func (m *Morphing) PublishCounts() {
	m.proposed.PublishCounts()
	if m.tel != nil {
		for i, c := range m.tel {
			c.Add(m.morphs[i] - m.published[i])
		}
	}
	m.published = m.morphs
}

// observe closes per-thread IPC windows, setting closedThisTick when
// at least one window closed (morph decisions are window-aligned, not
// cycle-aligned).
func (m *Morphing) observe(v amp.View) {
	m.closedThisTick = false
	for t := 0; t < 2; t++ {
		arch := v.Arch(t)
		if arch.Committed < m.nextEdge[t] {
			// A thread parked behind a long stall never closes its
			// commit window; close on a generous cycle budget instead
			// so its collapsed IPC becomes visible.
			if v.Cycle()-m.lastCycle[t] < 8*m.cfg.Base.WindowSize {
				continue
			}
		}
		dC := arch.Committed - m.lastCommit[t]
		dCy := v.Cycle() - m.lastCycle[t]
		if dCy == 0 {
			continue
		}
		m.winIPC[t] = float64(dC) / float64(dCy)
		m.haveIPC[t] = true
		m.lastCommit[t] = arch.Committed
		m.lastCycle[t] = v.Cycle()
		m.nextEdge[t] = arch.Committed + m.cfg.Base.WindowSize
		m.closedThisTick = true
	}
}

// Tick implements amp.MoveScheduler: the Fig. 5 swap rules apply only in
// the baseline configuration (composition-based affinity is undefined
// while the cores are strong+weak).
func (m *Morphing) Tick(v amp.View) []amp.Move {
	m.observe(v)
	if m.morphed {
		return nil
	}
	return m.proposed.Tick(v)
}

// MorphTick implements amp.MorphPolicy.
func (m *Morphing) MorphTick(v amp.View) (amp.MorphAction, int) {
	if !m.closedThisTick || !m.haveIPC[0] || !m.haveIPC[1] {
		return amp.MorphNone, 0
	}
	if !m.morphed {
		low, high := -1, -1
		if m.winIPC[0] < m.cfg.LowIPC && m.winIPC[1] > m.cfg.HighIPC {
			low, high = 0, 1
		} else if m.winIPC[1] < m.cfg.LowIPC && m.winIPC[0] > m.cfg.HighIPC {
			low, high = 1, 0
		}
		if high < 0 {
			m.consecOn = 0
			return amp.MorphNone, 0
		}
		m.consecOn++
		if m.consecOn < m.cfg.ConsecWindows {
			return amp.MorphNone, 0
		}
		m.morphed = true
		m.strongThread = high
		m.morphStart = v.Cycle()
		m.consecOn = 0
		m.consecOff = 0
		m.morphs[0]++
		_ = low
		return amp.MorphOn, high
	}

	// Morphed: watch for the parked thread's recovery or the strong
	// thread cooling off.
	if v.Cycle()-m.morphStart < m.cfg.MinMorphCycles {
		return amp.MorphNone, 0
	}
	weak := 1 - m.strongThread
	recover := m.winIPC[weak] > m.cfg.LowIPC*m.cfg.RecoveryFactor ||
		m.winIPC[m.strongThread] < m.cfg.HighIPC/2
	if !recover {
		m.consecOff = 0
		return amp.MorphNone, 0
	}
	m.consecOff++
	if m.consecOff < m.cfg.ConsecWindows {
		return amp.MorphNone, 0
	}
	m.morphed = false
	m.consecOff = 0
	m.morphs[1]++
	return amp.MorphOff, 0
}

var _ amp.MoveScheduler = (*Morphing)(nil)
var _ amp.MorphPolicy = (*Morphing)(nil)
var _ amp.StatsReporter = (*Morphing)(nil)
var _ amp.CountPublisher = (*Morphing)(nil)
