package amp

import (
	"ampsched/internal/cpu"
	"ampsched/internal/telemetry"
)

// Option customizes a System at construction: observers, fault plans,
// the simulation engine and telemetry are attached by passing
// WithObserver / WithFaultPlan / WithEngine / WithTelemetry to
// NewSystem.
type Option func(*System)

// WithObserver installs an event observer. Multiple WithObserver (and
// WithTelemetry) options compose: every observer sees every event.
func WithObserver(o Observer) Option {
	return func(s *System) {
		if o == nil {
			return
		}
		s.obs = MultiObserver(s.obs, o)
	}
}

// WithFaultPlan routes every swap request through the injector
// (typically a *fault.Plan). Reset drops it.
func WithFaultPlan(inj SwapInjector) Option {
	return func(s *System) {
		if inj != nil {
			s.injector = inj
		}
	}
}

// WithEngine selects the simulation fidelity: NewSystem builds both
// cores with f instead of the default cpu.DetailedFactory. Use
// interval.Factory() for the calibrated analytic model or
// interval.SampledFactory() for two-tier sampled simulation. A nil f
// keeps the default, so call sites can pass a possibly-unset factory
// unconditionally.
func WithEngine(f cpu.EngineFactory) Option {
	return func(s *System) {
		if f != nil {
			s.engineFactory = f
		}
	}
}

// WithTelemetry publishes the system's metrics and events into t: the
// amp.* counters and histograms (swaps, failures, overhead
// distribution, watchdog resets), per-core cpu.* activity gauges at
// run end, and — when t has sinks — the full event stream. A nil t is
// ignored, keeping the call site unconditional.
//
// A scheduler's sched.<policy>.* counters (sched.WithTelemetry) land
// once per run, when RunContext returns, so a live view of t (say,
// ampserve's /metrics) lags the runs in flight by at most one run each.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(s *System) {
		if t == nil {
			return
		}
		h := newTelemetryHook(s, t)
		s.tel = h
		s.obs = MultiObserver(s.obs, h)
	}
}
