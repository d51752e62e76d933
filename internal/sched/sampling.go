package sched

import (
	"fmt"

	"ampsched/internal/amp"
)

// SamplingConfig parameterizes the sampling scheduler, the classic
// AMP policy of the related work (§II: Kumar et al. [3], Becchi &
// Crowley [10]): instead of predicting the other core's behavior, it
// periodically *tries* the swapped assignment, measures both
// configurations back to back, and keeps the better one.
type SamplingConfig struct {
	// Interval between sampling episodes, in cycles.
	Interval uint64
	// SampleLen is the length of each measurement half, in cycles.
	SampleLen uint64
	// KeepThreshold: the swapped configuration is kept when its
	// measured metric exceeds the incumbent's by this factor
	// (hysteresis against noise).
	KeepThreshold float64
}

// DefaultSamplingConfig returns a sampling policy with the same
// decision period as the other coarse-grain schemes.
func DefaultSamplingConfig() SamplingConfig {
	return SamplingConfig{
		Interval:      amp.ContextSwitchCycles,
		SampleLen:     amp.ContextSwitchCycles / 16,
		KeepThreshold: 1.02,
	}
}

// Validate reports the first problem with the configuration.
func (c *SamplingConfig) Validate() error {
	if c.Interval == 0 {
		return fmt.Errorf("sched: sampling: zero Interval")
	}
	if c.SampleLen == 0 {
		return fmt.Errorf("sched: sampling: zero SampleLen")
	}
	if 2*c.SampleLen >= c.Interval {
		return fmt.Errorf("sched: sampling: two samples (%d) do not fit in the interval (%d)",
			2*c.SampleLen, c.Interval)
	}
	if c.KeepThreshold <= 0 {
		return fmt.Errorf("sched: sampling: non-positive KeepThreshold")
	}
	return nil
}

// samplingPhase is the scheduler's state machine.
type samplingPhase uint8

const (
	phaseRun     samplingPhase = iota // normal execution
	phaseBase                         // measuring the incumbent assignment
	phaseSwapped                      // measuring the swapped assignment
)

// Sampling is the sample-and-keep-the-better scheduler. Each episode
// costs one swap to try the alternative and possibly one swap to go
// back, which is exactly the overhead the estimation-based schemes
// (HPE, proposed) were invented to avoid.
type Sampling struct {
	cfg SamplingConfig

	phase       samplingPhase
	episodeAt   uint64 // cycle the next episode starts
	phaseEnd    uint64
	baseMetric  float64
	measureFrom [2]measurePoint
	tel         polTel
	em          swapEmitter
}

type measurePoint struct {
	committed uint64
	energy    float64
}

// NewSampling builds the scheduler. Options attach telemetry.
func NewSampling(cfg SamplingConfig, opts ...Option) *Sampling {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o := buildOptions(opts)
	return &Sampling{cfg: cfg, tel: newPolTel(o.tel, "sched.sampling")}
}

// Name implements amp.MoveScheduler.
func (s *Sampling) Name() string { return "sampling" }

// Reset implements amp.MoveScheduler.
func (s *Sampling) Reset(v amp.View) {
	s.phase = phaseRun
	s.episodeAt = v.Cycle() + s.cfg.Interval
	s.tel.reset()
}

// SchedStats implements amp.StatsReporter.
func (s *Sampling) SchedStats() amp.SchedulerStats { return s.tel.stats() }

// PublishCounts implements amp.CountPublisher.
func (s *Sampling) PublishCounts() { s.tel.publish() }

// snapshot records both threads' committed counts and energies.
func (s *Sampling) snapshot(v amp.View) [2]measurePoint {
	var m [2]measurePoint
	for t := 0; t < 2; t++ {
		m[t] = measurePoint{
			committed: v.Arch(t).Committed,
			energy:    v.ThreadEnergyNJ(t),
		}
	}
	return m
}

// metric scores an interval: the sum over threads of committed
// instructions per nanojoule — proportional to the summed IPC/Watt at
// fixed frequency, the paper's optimization target.
func (s *Sampling) metric(v amp.View, from [2]measurePoint) float64 {
	total := 0.0
	for t := 0; t < 2; t++ {
		dC := v.Arch(t).Committed - from[t].committed
		dE := v.ThreadEnergyNJ(t) - from[t].energy
		if dE <= 0 {
			return 0
		}
		total += float64(dC) / dE
	}
	return total
}

// Tick implements amp.MoveScheduler via the three-phase state machine:
// run -> measure incumbent -> swap, measure alternative -> keep better.
func (s *Sampling) Tick(v amp.View) []amp.Move {
	now := v.Cycle()
	switch s.phase {
	case phaseRun:
		if now < s.episodeAt {
			return nil
		}
		s.phase = phaseBase
		s.phaseEnd = now + s.cfg.SampleLen
		s.measureFrom = s.snapshot(v)
		return nil

	case phaseBase:
		if now < s.phaseEnd {
			return nil
		}
		s.baseMetric = s.metric(v, s.measureFrom)
		s.phase = phaseSwapped
		s.phaseEnd = now + s.cfg.SampleLen
		// The swap lands first; measurement restarts on the next tick
		// to exclude the stall window.
		s.measureFrom = s.snapshot(v)
		s.tel.n[cntDecisions]++
		s.tel.n[cntRequests]++
		return s.em.swap(v)

	case phaseSwapped:
		if now < s.phaseEnd {
			return nil
		}
		swappedMetric := s.metric(v, s.measureFrom)
		s.phase = phaseRun
		s.episodeAt = now + s.cfg.Interval
		s.tel.n[cntDecisions]++
		if swappedMetric >= s.baseMetric*s.cfg.KeepThreshold {
			// Keep the swapped assignment.
			return nil
		}
		// Revert.
		s.tel.n[cntRequests]++
		return s.em.swap(v)
	}
	return nil
}

var _ amp.MoveScheduler = (*Sampling)(nil)
var _ amp.StatsReporter = (*Sampling)(nil)
var _ amp.CountPublisher = (*Sampling)(nil)
