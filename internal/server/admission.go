package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ampsched/internal/jobqueue"
	"ampsched/internal/telemetry"
)

// Overload protection. Every refusal of a submitted group is decided
// here, in one critical section with the group's enqueue, by three
// mechanisms:
//
//   - A per-fidelity circuit breaker: when the recent wedge rate for
//     one fidelity crosses BreakerTripRate, that fidelity is refused
//     (HTTP 503 + Retry-After) for BreakerCooldown, then a half-open
//     probe decides between closing and re-tripping. Fidelities trip
//     independently — a pathological detailed-engine workload must not
//     take interval traffic down with it.
//
//   - Cost-based load shedding: each job carries an estimated cost
//     (pairs x a fidelity weight — a detailed pair costs ~100x an
//     interval pair). When the queue's backlog cost plus the group's
//     would exceed AdmissionConfig.MaxPendingCost, the group is shed
//     with HTTP 429 and a Retry-After sized to the backlog. Shedding
//     by cost catches the failure mode a depth limit misses: a few
//     detailed-fidelity sweeps can out-weigh hundreds of interval
//     jobs.
//
//   - A depth bound: a group that would push the pending backlog past
//     AdmissionConfig.MaxPending is refused with ErrQueueFull (HTTP 429,
//     Retry-After: 1).
//
// Recovered jobs skip all three: they were admitted before the crash.

// ErrQueueFull marks a group refused because the pending backlog would
// pass AdmissionConfig.MaxPending.
var ErrQueueFull = errors.New("server: queue full")

// ErrShed marks a job refused by cost-based load shedding.
var ErrShed = errors.New("server: overloaded, job shed")

// ErrBreakerOpen marks a job refused by a tripped circuit breaker.
var ErrBreakerOpen = errors.New("server: circuit breaker open")

// OverloadError wraps ErrShed/ErrBreakerOpen with the retry hint the
// HTTP layer turns into a Retry-After header.
type OverloadError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string { return e.Err.Error() }
func (e *OverloadError) Unwrap() error { return e.Err }

// AdmissionConfig tunes overload protection. The zero value bounds the
// backlog at 4 jobs per worker, disables load shedding and enables the
// breaker with defaults.
type AdmissionConfig struct {
	// MaxPending refuses groups that would push the pending backlog past
	// this many jobs; 0 means 4x the queue's workers.
	MaxPending int
	// MaxPendingCost sheds submissions that would push the queue's
	// estimated backlog cost past this bound; 0 disables shedding.
	MaxPendingCost float64
	// RetryAfter is the shed retry hint (0 = 1s).
	RetryAfter time.Duration
	// BreakerWindow is the per-fidelity outcome window (0 = 20; < 0
	// disables the breaker).
	BreakerWindow int
	// BreakerTripRate is the wedge fraction, over a full window, that
	// trips the breaker (0 = 0.5).
	BreakerTripRate float64
	// BreakerCooldown is how long a tripped breaker refuses jobs
	// before probing half-open (0 = 5s).
	BreakerCooldown time.Duration
}

// fidelityCostWeight scales a pair's admission cost by engine expense
// (calibrated roughly to relative simulated-instruction throughput).
func fidelityCostWeight(fidelity string) float64 {
	switch fidelity {
	case "detailed":
		return 100
	case "sampled":
		return 10
	default: // interval
		return 1
	}
}

// jobCost estimates one job's expense in weighted pairs.
func jobCost(fidelity string, pairs int) float64 {
	return float64(pairs) * fidelityCostWeight(fidelity)
}

// breakerState is a circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one fidelity's circuit breaker.
type breaker struct {
	window   []bool // ring: true = wedged outcome
	idx      int
	filled   int
	wedged   int
	state    breakerState
	openedAt time.Time
}

// admission is the server's overload-protection state.
type admission struct {
	cfg AdmissionConfig

	mu       sync.Mutex
	breakers map[string]*breaker

	shed  *telemetry.Counter
	trips *telemetry.Counter
}

func newAdmission(cfg AdmissionConfig, tel *telemetry.Telemetry) *admission {
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.BreakerWindow == 0 {
		cfg.BreakerWindow = 20
	}
	if cfg.BreakerTripRate == 0 {
		cfg.BreakerTripRate = 0.5
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	return &admission{
		cfg:      cfg,
		breakers: make(map[string]*breaker),
		shed:     tel.Counter("server.jobs_shed"),
		trips:    tel.Counter("server.breaker_trips"),
	}
}

// demand is one job's claim on admission: the fidelity whose breaker
// gates it and its estimated cost.
type demand struct {
	fidelity string
	cost     float64
}

// admit gates a submitted group as a whole and, if it passes, calls
// enqueue. stats reads the queue's backlog. The check and the enqueue
// share one critical section, so racing submitters cannot both pass
// against a backlog that only one of them may grow. A refusal is an
// *OverloadError wrapping ErrBreakerOpen or ErrShed, or ErrQueueFull.
func (a *admission) admit(group []demand, stats func() jobqueue.Stats, enqueue func() error) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var cost float64
	for _, d := range group {
		cost += d.cost
		b, ok := a.breakers[d.fidelity]
		if !ok || b.state == breakerClosed {
			continue
		}
		elapsed := time.Since(b.openedAt) //ampvet:allow determinism breaker cooldown is inherently wall-clock
		if b.state == breakerOpen {
			if elapsed < a.cfg.BreakerCooldown {
				a.shed.Inc()
				return &OverloadError{
					Err:        fmt.Errorf("%w for fidelity %q", ErrBreakerOpen, d.fidelity),
					RetryAfter: a.cfg.BreakerCooldown - elapsed,
				}
			}
			b.state = breakerHalfOpen // cooldown over: admit probes
		}
	}
	qs := stats()
	if a.cfg.MaxPendingCost > 0 && qs.PendingCost+qs.RunningCost+cost > a.cfg.MaxPendingCost {
		a.shed.Inc()
		return &OverloadError{
			Err: fmt.Errorf("%w: backlog cost %.0f + job cost %.0f exceeds %.0f",
				ErrShed, qs.PendingCost+qs.RunningCost, cost, a.cfg.MaxPendingCost),
			RetryAfter: a.cfg.RetryAfter,
		}
	}
	if qs.Pending+len(group) > a.cfg.MaxPending {
		return fmt.Errorf("%w: %d pending + %d submitted exceeds %d",
			ErrQueueFull, qs.Pending, len(group), a.cfg.MaxPending)
	}
	return enqueue()
}

// record feeds one computed pair outcome into fidelity's breaker.
func (a *admission) record(fidelity string, wedged bool) {
	if a.cfg.BreakerWindow < 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.breakers[fidelity]
	if !ok {
		b = &breaker{window: make([]bool, a.cfg.BreakerWindow)}
		a.breakers[fidelity] = b
	}
	switch b.state {
	case breakerHalfOpen:
		if wedged {
			// The probe failed: re-open for a fresh cooldown.
			b.state = breakerOpen
			b.openedAt = time.Now() //ampvet:allow determinism breaker cooldown is inherently wall-clock
			a.trips.Inc()
		} else {
			// The probe succeeded: close and forget the bad window.
			b.state = breakerClosed
			b.idx, b.filled, b.wedged = 0, 0, 0
			for i := range b.window {
				b.window[i] = false
			}
		}
	case breakerClosed:
		if b.window[b.idx] {
			b.wedged--
		}
		b.window[b.idx] = wedged
		if wedged {
			b.wedged++
		}
		b.idx = (b.idx + 1) % len(b.window)
		if b.filled < len(b.window) {
			b.filled++
		}
		if b.filled == len(b.window) &&
			float64(b.wedged) >= a.cfg.BreakerTripRate*float64(len(b.window)) {
			b.state = breakerOpen
			b.openedAt = time.Now() //ampvet:allow determinism breaker cooldown is inherently wall-clock
			a.trips.Inc()
		}
	case breakerOpen:
		// In-flight jobs admitted before the trip still report; their
		// outcomes are irrelevant until the half-open probe.
	}
}

// openBreakers lists fidelities currently refusing traffic (sorted, so
// readyz output is stable).
func (a *admission) openBreakers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var open []string
	for fid, b := range a.breakers { //ampvet:allow determinism sorted before return
		if b.state == breakerOpen {
			open = append(open, fid)
		}
	}
	sort.Strings(open)
	return open
}

// shedding reports whether a zero-cost submission would currently be
// refused — i.e. the backlog alone is past the bound (readyz signal).
func (a *admission) shedding(qs jobqueue.Stats) bool {
	return a.cfg.MaxPendingCost > 0 && qs.PendingCost+qs.RunningCost > a.cfg.MaxPendingCost
}
