package sched

import (
	"math"

	"ampsched/internal/amp"
)

// RoundRobin unconditionally swaps the two threads every Interval
// cycles — the static reference scheme of §VII. The paper evaluates
// decision intervals of 1 and 2 context-switch periods and finds 1×
// (2 ms) better; NewRoundRobinInterval takes the period in cycles so
// both can be run.
type RoundRobin struct {
	interval uint64
	next     uint64
	tel      polTel
	em       swapEmitter
}

// NewRoundRobinInterval returns a Round Robin scheduler swapping every
// cycles cycles (cycles >= 1).
func NewRoundRobinInterval(cycles uint64, opts ...Option) *RoundRobin {
	if cycles == 0 {
		panic("sched: roundrobin: zero interval")
	}
	o := buildOptions(opts)
	return &RoundRobin{interval: cycles, tel: newPolTel(o.tel, "sched.roundrobin")}
}

// Name implements amp.MoveScheduler.
func (r *RoundRobin) Name() string { return "roundrobin" }

// Interval returns the swap period in cycles.
func (r *RoundRobin) Interval() uint64 { return r.interval }

// Reset implements amp.MoveScheduler.
func (r *RoundRobin) Reset(v amp.View) {
	r.next = v.Cycle() + r.interval
	r.tel.reset()
}

// SchedStats implements amp.StatsReporter.
func (r *RoundRobin) SchedStats() amp.SchedulerStats { return r.tel.stats() }

// PublishCounts implements amp.CountPublisher.
func (r *RoundRobin) PublishCounts() { r.tel.publish() }

// Tick implements amp.MoveScheduler.
//
//ampvet:hotpath
func (r *RoundRobin) Tick(v amp.View) []amp.Move {
	if v.Cycle() < r.next {
		return nil
	}
	r.next = v.Cycle() + r.interval
	r.tel.n[cntDecisions]++
	r.tel.n[cntRequests]++
	return r.em.swap(v)
}

// NextWake implements amp.Waker: Tick acts at the next swap cycle
// and never on a commit count.
func (r *RoundRobin) NextWake() (uint64, [2]uint64) {
	return r.next, [2]uint64{math.MaxUint64, math.MaxUint64}
}

var _ amp.MoveScheduler = (*RoundRobin)(nil)
var _ amp.Waker = (*RoundRobin)(nil)
var _ amp.StatsReporter = (*RoundRobin)(nil)
var _ amp.CountPublisher = (*RoundRobin)(nil)
