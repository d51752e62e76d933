package sched

import (
	"fmt"
	"math"

	"ampsched/internal/amp"
	"ampsched/internal/monitor"
)

// ProposedConfig parameterizes the proposed dynamic thread scheduling
// scheme. The zero value is invalid; use DefaultProposedConfig for the
// paper's operating point (window 1000, history 5, thresholds of
// Fig. 5, forced swap every 2 ms).
type ProposedConfig struct {
	// WindowSize is the commit-window length in instructions over
	// which composition is measured (§VI-B sweeps 500/1000/2000).
	WindowSize uint64
	// HistoryDepth is the number of recent tentative decisions that
	// vote on a reconfiguration (§VI-B sweeps 5/10).
	HistoryDepth int
	// ForceInterval is the fairness-swap period of Fig. 5 step 3.
	ForceInterval uint64
	// Thresholds of Fig. 5 (percentages).
	IntHigh float64 // %INT on FP core at/above which it wants the INT core
	IntLow  float64 // %INT on INT core at/below which it can give it up
	FPHigh  float64 // %FP on INT core at/above which it wants the FP core
	FPLow   float64 // %FP on FP core at/below which it can give it up
	// DisableForcedSwap turns off Fig. 5 step 3 (ablation).
	DisableForcedSwap bool
	// RetryBackoffCycles is the initial hold-off after an observed
	// swap-request failure (fault injection); it doubles per
	// consecutive failure up to ForceInterval. 0 means
	// DefaultRetryBackoffCycles.
	RetryBackoffCycles uint64
}

// DefaultProposedConfig returns the paper's chosen operating point.
func DefaultProposedConfig() ProposedConfig {
	return ProposedConfig{
		WindowSize:    1000,
		HistoryDepth:  5,
		ForceInterval: amp.ContextSwitchCycles,
		IntHigh:       55,
		IntLow:        35,
		FPHigh:        20,
		FPLow:         7,
	}
}

// Validate reports the first problem with the configuration.
func (c *ProposedConfig) Validate() error {
	if c.WindowSize == 0 {
		return fmt.Errorf("sched: proposed: zero WindowSize")
	}
	if c.HistoryDepth <= 0 {
		return fmt.Errorf("sched: proposed: non-positive HistoryDepth %d", c.HistoryDepth)
	}
	if c.ForceInterval == 0 && !c.DisableForcedSwap {
		return fmt.Errorf("sched: proposed: zero ForceInterval with forced swap enabled")
	}
	for _, th := range []struct {
		name string
		v    float64
	}{{"IntHigh", c.IntHigh}, {"IntLow", c.IntLow}, {"FPHigh", c.FPHigh}, {"FPLow", c.FPLow}} {
		if th.v < 0 || th.v > 100 {
			return fmt.Errorf("sched: proposed: threshold %s=%g outside [0,100]", th.name, th.v)
		}
	}
	return nil
}

// Proposed is the paper's dynamic thread scheduling scheme: an online
// monitor (per-thread commit-window composition trackers) plus a
// performance predictor (threshold rules + majority history vote).
type Proposed struct {
	cfg        ProposedConfig
	obsFactory func(window uint64) monitor.Observer
	trackers   [2]monitor.Observer // indexed by thread
	// winTrk backs trackers when no observer factory replaces the
	// hardware monitors: value storage, re-Init'd per run, so a reset
	// allocates nothing.
	winTrk [2]monitor.WindowTracker
	voter  monitor.Voter
	retry  retryState
	tel    polTel
	em     swapEmitter
	// guard is ProposedExt's §VII memory guard; nil for the Fig. 5
	// scheme alone.
	guard   *memGuard
	intCore int
	fpCore  int
}

// NewProposed builds the scheduler; cfg is validated. Options attach
// telemetry (WithTelemetry) or replace the hardware monitors
// (WithObserverFactory).
func NewProposed(cfg ProposedConfig, opts ...Option) *Proposed {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o := buildOptions(opts)
	return &Proposed{cfg: cfg, obsFactory: o.obsFactory, tel: newPolTel(o.tel, "sched.proposed")}
}

// Name implements amp.MoveScheduler.
func (p *Proposed) Name() string { return p.tel.name }

// Config returns the scheduler's configuration.
func (p *Proposed) Config() ProposedConfig { return p.cfg }

// Reset implements amp.MoveScheduler.
func (p *Proposed) Reset(v amp.View) {
	p.intCore, p.fpCore = coreIndexes(v)
	for t := 0; t < 2; t++ {
		if p.obsFactory != nil {
			p.trackers[t] = p.obsFactory(p.cfg.WindowSize)
		} else {
			p.winTrk[t].Init(p.cfg.WindowSize)
			p.trackers[t] = &p.winTrk[t]
		}
		p.trackers[t].Reset(v.Arch(t))
	}
	if p.guard != nil {
		p.guard.reset(v)
	}
	p.voter.Init(p.cfg.HistoryDepth)
	p.tel.reset()
	p.retry.reset(p.cfg.RetryBackoffCycles, p.cfg.ForceInterval, v)
	p.retry.retries = &p.tel.n[cntRetries]
}

// SchedStats implements amp.StatsReporter.
func (p *Proposed) SchedStats() amp.SchedulerStats {
	st := p.tel.stats()
	st.FailedRequests = p.retry.failed
	return st
}

// PublishCounts implements amp.CountPublisher.
func (p *Proposed) PublishCounts() { p.tel.publish() }

// Tick implements amp.MoveScheduler. A tentative decision is made at
// the end of every committed-instruction window; the reconfiguration
// fires on a strict majority of the last HistoryDepth tentative
// decisions, or through the forced fairness swap of Fig. 5 step 3.
//
//ampvet:hotpath
func (p *Proposed) Tick(v amp.View) []amp.Move {
	closed := false
	for t := 0; t < 2; t++ {
		if s, ok := p.trackers[t].Observe(v.Arch(t)); ok {
			if p.guard != nil {
				p.guard.observe(v, t)
			}
			p.tel.window(v.Cycle(), t, s)
			closed = true
		}
	}
	if !closed {
		return nil
	}

	tFP, tINT := v.ThreadOnCore(p.fpCore), v.ThreadOnCore(p.intCore)
	sFP, okFP := p.trackers[tFP].Latest()
	sINT, okINT := p.trackers[tINT].Latest()
	if !okFP || !okINT {
		return nil // need one full window from each thread first
	}
	p.tel.n[cntDecisions]++
	p.retry.observe(v)

	// Fig. 5 step 2: swap helps both threads — (i) the thread on the FP
	// core surged in INT work, or (ii) the thread on the INT core in FP
	// work. The majority vote keeps accumulating during a failure
	// hold-off, so the request re-fires as soon as the backoff expires
	// (retry, not abandonment).
	c := &p.cfg
	intSurge := sFP.IntPct >= c.IntHigh && sINT.IntPct <= c.IntLow
	fpSurge := sINT.FPPct >= c.FPHigh && sFP.FPPct <= c.FPLow
	// ProposedExt's §VII guard may turn a surge into a stay vote.
	if (intSurge || fpSurge) && p.guard != nil {
		intSurge = intSurge && !p.guard.veto(tFP, sINT.FPPct < c.FPHigh)
		fpSurge = fpSurge && !p.guard.veto(tINT, sFP.IntPct < c.IntHigh)
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
		p.requestSwap()
		return p.em.swap(v)
	}

	// Fig. 5 step 3: fairness swap when both threads share a flavor
	// and no swap has happened for a context-switch interval.
	if !c.DisableForcedSwap && v.Cycle()-v.LastSwapCycle() >= c.ForceInterval {
		forced := (sFP.IntPct >= c.IntHigh && sINT.IntPct >= c.IntHigh) ||
			(sINT.FPPct >= c.FPHigh && sFP.FPPct >= c.FPHigh)
		if forced {
			p.tel.n[cntForcedSwaps]++
			p.requestSwap()
			return p.em.swap(v)
		}
	}
	return nil
}

// NextWake implements amp.Waker. With the hardware window trackers,
// Tick acts only when a thread's commit window closes (the forced swap
// and the memory guard's observations happen at window closes too), so
// the wakes are the trackers' next edges. Replacement monitors
// (WithObserverFactory) promise nothing, and such a scheduler is
// ticked every window.
func (p *Proposed) NextWake() (uint64, [2]uint64) {
	if p.obsFactory != nil {
		return 0, [2]uint64{}
	}
	return math.MaxUint64, [2]uint64{p.winTrk[0].NextEdge(), p.winTrk[1].NextEdge()}
}

func (p *Proposed) requestSwap() {
	p.tel.n[cntRequests]++
	p.voter.Clear()
}

// ProposedExt is the proposed scheduler extended with the §VII memory
// guard: the Fig. 5 scheme of Proposed, with a rule-2 surge vetoed when
// the thread it would migrate is memory-bound.
type ProposedExt struct {
	Proposed
}

// NewProposedExt builds the extended scheduler; cfg is validated.
// Options attach telemetry or replace the hardware monitors, as for
// NewProposed.
func NewProposedExt(cfg ExtendedConfig, opts ...Option) *ProposedExt {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o := buildOptions(opts)
	p := &ProposedExt{Proposed{cfg: cfg.Base, obsFactory: o.obsFactory,
		tel: newPolTel(o.tel, "sched.proposed-ext")}}
	p.guard = &memGuard{l2MissRate: cfg.MemBoundL2MissRate, ipc: cfg.MemBoundIPC,
		vetoes: &p.tel.n[cntVetoes]}
	return p
}

// Config returns the scheduler's configuration.
func (p *ProposedExt) Config() ExtendedConfig {
	return ExtendedConfig{Base: p.cfg, MemBoundL2MissRate: p.guard.l2MissRate, MemBoundIPC: p.guard.ipc}
}

// Vetoes returns how many tentative swap votes the memory guard
// converted to stay votes since Reset.
func (p *ProposedExt) Vetoes() uint64 { return p.tel.n[cntVetoes] }

var _ amp.MoveScheduler = (*Proposed)(nil)
var _ amp.Waker = (*Proposed)(nil)
var _ amp.StatsReporter = (*Proposed)(nil)
var _ amp.CountPublisher = (*Proposed)(nil)
var _ amp.MoveScheduler = (*ProposedExt)(nil)
var _ amp.Waker = (*ProposedExt)(nil)
var _ amp.StatsReporter = (*ProposedExt)(nil)
var _ amp.CountPublisher = (*ProposedExt)(nil)
