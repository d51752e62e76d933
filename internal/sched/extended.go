package sched

import (
	"fmt"

	"ampsched/internal/amp"
	"ampsched/internal/cache"
	"ampsched/internal/monitor"
)

// ExtendedConfig parameterizes the §VII extension the paper leaves as
// future work: "We plan to improve upon these scenarios by including
// the performance (IPC) and last-level cache miss rate information
// into our swapping conditions." A composition-triggered swap is
// suppressed when the thread that would migrate to its affine core is
// memory-bound — its windows show a high L2 miss rate or an IPC too
// low for the execution-unit asymmetry to matter.
type ExtendedConfig struct {
	// Base is the underlying Fig. 5 configuration.
	Base ProposedConfig
	// MemBoundL2MissRate: at or above this window L2 miss rate the
	// migrating thread is considered memory-bound and the swap is
	// vetoed.
	MemBoundL2MissRate float64
	// MemBoundIPC: below this window IPC the thread is stall-bound
	// and the swap is vetoed.
	MemBoundIPC float64
}

// DefaultExtendedConfig returns the extension's operating point.
func DefaultExtendedConfig() ExtendedConfig {
	return ExtendedConfig{
		Base:               DefaultProposedConfig(),
		MemBoundL2MissRate: 0.30,
		MemBoundIPC:        0.10,
	}
}

// Validate reports the first problem with the configuration.
func (c *ExtendedConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.MemBoundL2MissRate < 0 || c.MemBoundL2MissRate > 1 {
		return fmt.Errorf("sched: extended: MemBoundL2MissRate %g outside [0,1]", c.MemBoundL2MissRate)
	}
	if c.MemBoundIPC < 0 {
		return fmt.Errorf("sched: extended: negative MemBoundIPC %g", c.MemBoundIPC)
	}
	return nil
}

// threadMemState tracks one thread's window-grain memory behavior.
type threadMemState struct {
	lastL2     cache.Stats
	lastCore   int
	lastCycle  uint64
	lastCommit uint64
	l2MissRate float64
	windowIPC  float64
	haveOne    bool
}

// ProposedExt is the proposed scheduler extended with the memory-
// boundedness guard of §VII.
type ProposedExt struct {
	cfg        ExtendedConfig
	obsFactory func(window uint64) monitor.Observer
	trackers   [2]monitor.Observer
	voter      *monitor.Voter
	mem        [2]threadMemState
	stats      amp.SchedulerStats
	retry      retryState
	tel        polTel
	em         swapEmitter
	vetoes     uint64
	intCore    int
	fpCore     int
}

// NewProposedExt builds the extended scheduler. Options attach
// telemetry or replace the hardware monitors.
func NewProposedExt(cfg ExtendedConfig, opts ...Option) *ProposedExt {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o := buildOptions(opts)
	return &ProposedExt{cfg: cfg, obsFactory: o.obsFactory, tel: newPolTel(o.tel, "sched.proposed-ext")}
}

// Name implements amp.MoveScheduler.
func (p *ProposedExt) Name() string { return "proposed-ext" }

// Config returns the scheduler's configuration.
func (p *ProposedExt) Config() ExtendedConfig { return p.cfg }

// Vetoes returns how many tentative swap votes the memory guard
// converted to stay votes.
func (p *ProposedExt) Vetoes() uint64 { return p.vetoes }

// Reset implements amp.MoveScheduler.
func (p *ProposedExt) Reset(v amp.View) {
	p.intCore, p.fpCore = coreIndexes(v)
	for t := 0; t < 2; t++ {
		if p.obsFactory != nil {
			p.trackers[t] = p.obsFactory(p.cfg.Base.WindowSize)
		} else {
			p.trackers[t] = monitor.NewWindowTracker(p.cfg.Base.WindowSize)
		}
		p.trackers[t].Reset(v.Arch(t))
		core := v.CoreOfThread(t)
		p.mem[t] = threadMemState{
			lastL2:     v.L2Stats(core),
			lastCore:   core,
			lastCycle:  v.Cycle(),
			lastCommit: v.Arch(t).Committed,
		}
	}
	p.voter = monitor.NewVoter(p.cfg.Base.HistoryDepth)
	p.stats = amp.SchedulerStats{}
	p.retry.reset(p.cfg.Base.RetryBackoffCycles, p.cfg.Base.ForceInterval, v)
	p.retry.retries = &p.tel.n[cntRetries]
	p.vetoes = 0
}

// PublishCounts implements amp.CountPublisher.
func (p *ProposedExt) PublishCounts() { p.tel.publish() }

// SchedStats implements amp.StatsReporter.
func (p *ProposedExt) SchedStats() amp.SchedulerStats {
	st := p.stats
	st.Vetoes = p.vetoes
	st.FailedRequests = p.retry.failed
	return st
}

// observeMem updates thread t's window-grain L2 miss rate and IPC.
func (p *ProposedExt) observeMem(v amp.View, t int) {
	core := v.CoreOfThread(t)
	cur := v.L2Stats(core)
	m := &p.mem[t]
	if core != m.lastCore {
		// The thread migrated since the last window: the delta would
		// mix two cores' counters, so just re-arm.
		m.lastL2 = cur
		m.lastCore = core
		m.lastCycle = v.Cycle()
		m.lastCommit = v.Arch(t).Committed
		m.haveOne = false
		return
	}
	d := cur.Sub(m.lastL2)
	cycles := v.Cycle() - m.lastCycle
	commits := v.Arch(t).Committed - m.lastCommit
	m.l2MissRate = d.MissRate()
	if cycles > 0 {
		m.windowIPC = float64(commits) / float64(cycles)
	}
	m.haveOne = true
	m.lastL2 = cur
	m.lastCore = core
	m.lastCycle = v.Cycle()
	m.lastCommit = v.Arch(t).Committed
}

// memBound reports whether thread t's last window looked memory- or
// stall-bound.
func (p *ProposedExt) memBound(t int) bool {
	m := &p.mem[t]
	if !m.haveOne {
		return false
	}
	return m.l2MissRate >= p.cfg.MemBoundL2MissRate || m.windowIPC < p.cfg.MemBoundIPC
}

// Tick implements amp.MoveScheduler. It follows the Fig. 5 logic of the
// base scheme, but a rule-2 trigger whose migrating beneficiary is
// memory-bound becomes a stay vote.
//
//ampvet:hotpath
func (p *ProposedExt) Tick(v amp.View) []amp.Move {
	closed := false
	for t := 0; t < 2; t++ {
		if s, ok := p.trackers[t].Observe(v.Arch(t)); ok {
			p.observeMem(v, t)
			p.tel.window(v.Cycle(), t, s)
			closed = true
		}
	}
	if !closed {
		return nil
	}
	tFP := v.ThreadOnCore(p.fpCore)
	tINT := v.ThreadOnCore(p.intCore)
	sFP, okFP := p.trackers[tFP].Latest()
	sINT, okINT := p.trackers[tINT].Latest()
	if !okFP || !okINT {
		return nil
	}
	p.stats.DecisionPoints++
	p.tel.n[cntDecisions]++
	p.retry.observe(v)

	base := &p.cfg.Base
	// Rule 2(i): the thread on the FP core surged in INT work. The
	// guard vetoes only when that thread is memory-bound AND the
	// partner would not itself profit from reaching the FP core —
	// rule 2 exists because a swap helps both threads, so a
	// memory-bound beneficiary alone is not a reason to deny the
	// partner a core it craves.
	intSurge := sFP.IntPct >= base.IntHigh && sINT.IntPct <= base.IntLow
	if intSurge && p.memBound(tFP) && sINT.FPPct < base.FPHigh {
		intSurge = false
		p.vetoes++
		p.tel.n[cntVetoes]++
	}
	// Rule 2(ii): symmetric for an FP surge on the INT core.
	fpSurge := sINT.FPPct >= base.FPHigh && sFP.FPPct <= base.FPLow
	if fpSurge && p.memBound(tINT) && sFP.IntPct < base.IntHigh {
		fpSurge = false
		p.vetoes++
		p.tel.n[cntVetoes]++
	}
	tentative := intSurge || fpSurge
	p.voter.Push(tentative)
	p.tel.vote(tentative)
	majority := p.voter.Majority()
	if p.retry.holdoff(v.Cycle()) {
		if majority {
			p.tel.n[cntHoldoffs]++
		}
		return nil
	}
	if majority {
		p.tel.n[cntMajorityFires]++
		p.stats.SwapRequests++
		p.tel.n[cntRequests]++
		p.voter.Clear()
		return p.em.swap(v)
	}

	if !base.DisableForcedSwap && v.Cycle()-v.LastSwapCycle() >= base.ForceInterval {
		forced := (sFP.IntPct >= base.IntHigh && sINT.IntPct >= base.IntHigh) ||
			(sINT.FPPct >= base.FPHigh && sFP.FPPct >= base.FPHigh)
		if forced {
			p.tel.n[cntForcedSwaps]++
			p.stats.SwapRequests++
			p.tel.n[cntRequests]++
			p.voter.Clear()
			return p.em.swap(v)
		}
	}
	return nil
}

var _ amp.MoveScheduler = (*ProposedExt)(nil)
var _ amp.StatsReporter = (*ProposedExt)(nil)
var _ amp.CountPublisher = (*ProposedExt)(nil)
