package sched

import (
	"fmt"
	"math"

	"ampsched/internal/amp"
	"ampsched/internal/isa"
)

// Estimator predicts, for a thread with the observed instruction
// composition, the ratio of the IPC/Watt it would achieve on the INT
// core to the IPC/Watt it would achieve on the FP core. The matrix and
// regression estimators of §V (built by internal/profilegen) implement
// this; comparing the ratio to 1 says which core suits the thread.
type Estimator interface {
	Name() string
	RatioIntOverFP(intPct, fpPct float64) float64
}

// HPEConfig parameterizes the reference scheme.
type HPEConfig struct {
	// Interval between decisions, in cycles (2 ms context switch).
	Interval uint64
	// SpeedupThreshold: swap when the estimated weighted speedup of
	// the swapped configuration exceeds this (paper: 1.05).
	SpeedupThreshold float64
}

// DefaultHPEConfig returns the paper's HPE operating point.
func DefaultHPEConfig() HPEConfig {
	return HPEConfig{Interval: amp.ContextSwitchCycles, SpeedupThreshold: 1.05}
}

// Validate reports the first problem with the configuration.
func (c *HPEConfig) Validate() error {
	if c.Interval == 0 {
		return fmt.Errorf("sched: hpe: zero Interval")
	}
	if c.SpeedupThreshold <= 0 {
		return fmt.Errorf("sched: hpe: non-positive SpeedupThreshold %g", c.SpeedupThreshold)
	}
	return nil
}

// HPE is the Hardware-monitoring and Prediction Engine reference
// scheduler, extended per §V to flavor-asymmetric cores and the
// performance/watt objective.
type HPE struct {
	cfg  HPEConfig
	est  Estimator
	name string // "hpe-<estimator>", concatenated once at construction

	nextCheck uint64
	intCore   int
	fpCore    int

	lastCommitted [2]uint64
	lastClass     [2][isa.NumClasses]uint64
	lastEnergy    [2]float64
	lastCycle     uint64

	tel polTel
	em  swapEmitter
}

// NewHPE builds the scheduler around an estimator. Options attach
// telemetry; WithObserverFactory is ignored (HPE reads interval
// deltas, not commit windows).
func NewHPE(cfg HPEConfig, est Estimator, opts ...Option) *HPE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if est == nil {
		panic("sched: hpe: nil estimator")
	}
	o := buildOptions(opts)
	tel := newPolTel(o.tel, "sched.hpe-"+est.Name())
	return &HPE{cfg: cfg, est: est, name: tel.name, tel: tel}
}

// Name implements amp.MoveScheduler.
func (h *HPE) Name() string { return h.name }

// Estimator returns the ratio estimator in use.
func (h *HPE) Estimator() Estimator { return h.est }

// Reset implements amp.MoveScheduler.
func (h *HPE) Reset(v amp.View) {
	h.intCore, h.fpCore = coreIndexes(v)
	h.nextCheck = v.Cycle() + h.cfg.Interval
	h.lastCycle = v.Cycle()
	for t := 0; t < 2; t++ {
		arch := v.Arch(t)
		arch.Sync()
		h.lastCommitted[t] = arch.Committed
		h.lastClass[t] = arch.CommittedByClass
		h.lastEnergy[t] = v.ThreadEnergyNJ(t)
	}
	h.tel.reset()
}

// SchedStats implements amp.StatsReporter.
func (h *HPE) SchedStats() amp.SchedulerStats { return h.tel.stats() }

// PublishCounts implements amp.CountPublisher.
func (h *HPE) PublishCounts() { h.tel.publish() }

// intervalObservation summarizes one thread over the last interval.
type intervalObservation struct {
	committed  uint64
	intPct     float64
	fpPct      float64
	ipcPerWatt float64
	valid      bool
}

func (h *HPE) observe(v amp.View, t int, cycles uint64) intervalObservation {
	arch := v.Arch(t)
	arch.Sync()
	committed := arch.Committed - h.lastCommitted[t]
	energy := v.ThreadEnergyNJ(t) - h.lastEnergy[t]

	var intN, fpN uint64
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		d := arch.CommittedByClass[c] - h.lastClass[t][c]
		if c.IsInt() {
			intN += d
		} else if c.IsFP() {
			fpN += d
		}
	}

	ob := intervalObservation{committed: committed}
	if committed == 0 || energy <= 0 || cycles == 0 {
		return ob
	}
	ob.intPct = 100 * float64(intN) / float64(committed)
	ob.fpPct = 100 * float64(fpN) / float64(committed)
	ipc := float64(committed) / float64(cycles)
	seconds := float64(cycles) / (v.FreqGHz() * 1e9)
	watts := energy * 1e-9 / seconds
	ob.ipcPerWatt = ipc / watts
	ob.valid = true
	return ob
}

func (h *HPE) snapshot(v amp.View) {
	for t := 0; t < 2; t++ {
		arch := v.Arch(t)
		arch.Sync()
		h.lastCommitted[t] = arch.Committed
		h.lastClass[t] = arch.CommittedByClass
		h.lastEnergy[t] = v.ThreadEnergyNJ(t)
	}
	h.lastCycle = v.Cycle()
}

// Tick implements amp.MoveScheduler. Every Interval cycles it
// estimates each thread's IPC/Watt on the other core from the
// estimator's ratio and swaps when the predicted weighted speedup of
// the swapped configuration exceeds the threshold.
//
//ampvet:hotpath
func (h *HPE) Tick(v amp.View) []amp.Move {
	if v.Cycle() < h.nextCheck {
		return nil
	}
	h.nextCheck = v.Cycle() + h.cfg.Interval
	h.tel.n[cntDecisions]++

	cycles := v.Cycle() - h.lastCycle
	var obs [2]intervalObservation
	for t := 0; t < 2; t++ {
		obs[t] = h.observe(v, t, cycles)
	}
	h.snapshot(v)
	if !obs[0].valid || !obs[1].valid {
		return nil
	}

	est := (h.predictedSpeedup(v, obs[0], 0) + h.predictedSpeedup(v, obs[1], 1)) / 2
	if est > h.cfg.SpeedupThreshold {
		h.tel.n[cntRequests]++
		return h.em.swap(v)
	}
	return nil
}

// predictedSpeedup is thread t's estimated IPC/Watt factor if moved to
// the other core, from the estimator's INT-over-FP ratio surface.
//
//ampvet:hotpath
func (h *HPE) predictedSpeedup(v amp.View, o intervalObservation, t int) float64 {
	r := h.est.RatioIntOverFP(o.intPct, o.fpPct)
	if r <= 0 {
		return 1
	}
	if v.CoreOfThread(t) == h.intCore {
		// Moving INT->FP changes IPC/Watt by 1/r.
		return 1 / r
	}
	return r
}

// NextWake implements amp.Waker: Tick acts at the next decision cycle
// and never on a commit count.
func (h *HPE) NextWake() (uint64, [2]uint64) {
	return h.nextCheck, [2]uint64{math.MaxUint64, math.MaxUint64}
}

var _ amp.MoveScheduler = (*HPE)(nil)
var _ amp.Waker = (*HPE)(nil)
var _ amp.StatsReporter = (*HPE)(nil)
var _ amp.CountPublisher = (*HPE)(nil)
