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
	winTrk  [2]monitor.WindowTracker
	voter   monitor.Voter
	stats   amp.SchedulerStats
	retry   retryState
	tel     polTel
	em      swapEmitter
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
	return &Proposed{cfg: cfg, obsFactory: o.obsFactory, tel: newPolTel(o.tel, "proposed")}
}

// Name implements amp.MoveScheduler.
func (p *Proposed) Name() string { return "proposed" }

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
	p.voter.Init(p.cfg.HistoryDepth)
	p.stats = amp.SchedulerStats{}
	p.retry.reset(p.cfg.RetryBackoffCycles, p.cfg.ForceInterval, v)
	p.retry.retries = p.tel.retries
}

// SchedStats implements amp.StatsReporter.
func (p *Proposed) SchedStats() amp.SchedulerStats {
	st := p.stats
	st.FailedRequests = p.retry.failed
	return st
}

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
			p.tel.window(v.Cycle(), t, s)
			closed = true
		}
	}
	if !closed {
		return nil
	}

	sFP, okFP := p.trackers[v.ThreadOnCore(p.fpCore)].Latest()
	sINT, okINT := p.trackers[v.ThreadOnCore(p.intCore)].Latest()
	if !okFP || !okINT {
		return nil // need one full window from each thread first
	}
	p.stats.DecisionPoints++
	p.tel.decisions.Inc()
	p.retry.observe(v)

	// Fig. 5 step 2: swap helps both threads. The majority vote keeps
	// accumulating during a failure hold-off, so the request re-fires
	// as soon as the backoff expires (retry, not abandonment).
	tentative := (sFP.IntPct >= p.cfg.IntHigh && sINT.IntPct <= p.cfg.IntLow) ||
		(sINT.FPPct >= p.cfg.FPHigh && sFP.FPPct <= p.cfg.FPLow)
	p.voter.Push(tentative)
	p.tel.vote(tentative)
	majority := p.voter.Majority()
	if p.retry.holdoff(v.Cycle()) {
		if majority {
			p.tel.holdoffs.Inc()
		}
		return nil
	}
	if majority {
		p.tel.majorityFires.Inc()
		p.requestSwap()
		return p.em.swap(v)
	}

	// Fig. 5 step 3: fairness swap when both threads share a flavor
	// and no swap has happened for a context-switch interval.
	if !p.cfg.DisableForcedSwap && v.Cycle()-v.LastSwapCycle() >= p.cfg.ForceInterval {
		forced := (sFP.IntPct >= p.cfg.IntHigh && sINT.IntPct >= p.cfg.IntHigh) ||
			(sINT.FPPct >= p.cfg.FPHigh && sFP.FPPct >= p.cfg.FPHigh)
		if forced {
			p.tel.forcedSwaps.Inc()
			p.requestSwap()
			return p.em.swap(v)
		}
	}
	return nil
}

// NextWake implements amp.Waker. With the hardware window trackers,
// Tick acts only when a thread's commit window closes (the forced swap
// is evaluated at window closes too), so the wakes are the trackers'
// next edges. Replacement monitors (WithObserverFactory) promise
// nothing, and such a scheduler is ticked every window.
func (p *Proposed) NextWake() (uint64, [2]uint64) {
	if p.obsFactory != nil {
		return 0, [2]uint64{}
	}
	return math.MaxUint64, [2]uint64{p.winTrk[0].NextEdge(), p.winTrk[1].NextEdge()}
}

func (p *Proposed) requestSwap() {
	p.stats.SwapRequests++
	p.tel.requests.Inc()
	p.voter.Clear()
}

var _ amp.MoveScheduler = (*Proposed)(nil)
var _ amp.Waker = (*Proposed)(nil)
