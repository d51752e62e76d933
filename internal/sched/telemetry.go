package sched

import (
	"strings"

	"ampsched/internal/amp"
	"ampsched/internal/monitor"
	"ampsched/internal/telemetry"
)

// Option customizes a scheduler at construction. Every constructor in
// this package accepts trailing options; the zero-option call is the
// uninstrumented scheduler of earlier releases.
type Option func(*options)

type options struct {
	tel        *telemetry.Telemetry
	obsFactory func(window uint64) monitor.Observer
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// WithTelemetry publishes the scheduler's decision-making into t:
// per-policy counters (windows observed, decision points, votes,
// majority fires, forced swaps, retry backoffs, vetoes) under
// "sched.<policy>.*", and — when t has sinks — one "window" event per
// closed commit window. The events are emitted as they happen; the
// counts are added once per run, when the system's RunContext returns
// (amp.CountPublisher). A nil t is ignored.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(o *options) { o.tel = t }
}

// WithObserverFactory replaces the scheduler's hardware monitors, one
// observer per thread in thread order — the fault-injection seam
// (typically a fault.Plan wrapper, so the scheduler sees noisy,
// dropped or stale samples).
func WithObserverFactory(f func(window uint64) monitor.Observer) Option {
	return func(o *options) { o.obsFactory = f }
}

// polTel is one policy's count ledger and telemetry: the counts of the
// current run, in plain integers, and the shared "sched.<policy>.*"
// counters their growth is added to once per run, by publish. The same
// counts are the run's amp.SchedulerStats (stats). Counting costs a
// plain add per event whether telemetry is on or off; only publish
// touches the shared counters, which the workers of a parallel sweep
// all write. The zero value (telemetry disabled) counts and publishes
// nowhere.
type polTel struct {
	t    *telemetry.Telemetry
	name string
	h    *[numCounts]*telemetry.Counter // nil when telemetry is disabled
	n    [numCounts]uint64              // counted since reset
	pub  [numCounts]uint64              // the part of n already published
}

// The indexes of a policy's counts.
const (
	cntWindows = iota
	cntDecisions
	cntVotesSwap
	cntVotesStay
	cntMajorityFires
	cntForcedSwaps
	cntRequests
	cntHoldoffs
	cntRetries
	cntVetoes
	numCounts
)

// countNames name the counts' counters after "sched.<policy>.".
var countNames = [numCounts]string{"windows", "decisions", "votes_swap", "votes_stay",
	"majority_fires", "forced_swaps", "swap_requests", "backoff_holdoffs", "retry_backoffs", "vetoes"}

// newPolTel binds a policy to its counters, resolved once per Telemetry
// (telemetry.Handles) and shared by every scheduler of the policy: key
// is "sched.<policy>", and the policy's name, which window events
// carry, is key without its "sched." prefix. Callers pass a constant
// key, or build the name from the key, so a scheduler with telemetry
// allocates no more than one without.
func newPolTel(t *telemetry.Telemetry, key string) polTel {
	return polTel{t: t, name: strings.TrimPrefix(key, "sched."),
		h: telemetry.Handles(t, key, func(t *telemetry.Telemetry) *[numCounts]*telemetry.Counter {
			var h [numCounts]*telemetry.Counter
			for i, name := range countNames {
				h[i] = t.Counter(key + "." + name)
			}
			return &h
		})}
}

// vote counts one tentative window decision.
//
//ampvet:hotpath
func (pt *polTel) vote(swap bool) {
	if swap {
		pt.n[cntVotesSwap]++
	} else {
		pt.n[cntVotesStay]++
	}
}

// window counts one closed commit window and, when the event stream is
// live, publishes its composition.
//
//ampvet:hotpath
func (pt *polTel) window(cycle uint64, thread int, s monitor.Sample) {
	pt.n[cntWindows]++
	if pt.t.Eventing() {
		e := telemetry.NewEvent("window")
		e.Cycle = cycle
		e.Thread = thread
		e.Sched = pt.name
		e.IntPct = s.IntPct
		e.FPPct = s.FPPct
		pt.t.Emit(e)
	}
}

// publish adds the counts since the last publish to the shared
// counters.
func (pt *polTel) publish() {
	if pt.h != nil {
		for i, c := range pt.h {
			c.Add(pt.n[i] - pt.pub[i])
		}
	}
	pt.pub = pt.n
}

// reset starts a run's counts from zero.
func (pt *polTel) reset() {
	pt.n, pt.pub = [numCounts]uint64{}, [numCounts]uint64{}
}

// stats returns the counts as the run's scheduler statistics.
func (pt *polTel) stats() amp.SchedulerStats {
	return amp.SchedulerStats{DecisionPoints: pt.n[cntDecisions],
		SwapRequests: pt.n[cntRequests], Vetoes: pt.n[cntVetoes]}
}
