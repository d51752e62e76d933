package manycore

import (
	"ampsched/internal/cpu"
	"ampsched/internal/telemetry"
)

// Option customizes a System at construction, mirroring the amp
// package's instrumentation surface so pair-level call sites port to
// N×M without relearning anything.
type Option func(*System)

// WithEngine selects the simulation fidelity: New builds every core
// with f instead of the default cpu.DetailedFactory. A nil f keeps
// the default, so call sites can pass a possibly-unset factory
// unconditionally.
func WithEngine(f cpu.EngineFactory) Option {
	return func(s *System) {
		if f != nil {
			s.engineFactory = f
		}
	}
}

// WithTelemetry publishes the system's metrics into t: the manycore.*
// counters (reassigns, moves, invalid batches) and run-end
// gauges (cycles, committed, energy). A nil t is ignored, keeping the
// call site unconditional.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(s *System) {
		if t == nil {
			return
		}
		s.tel = newTelemetryHook(t)
	}
}

// telemetryHook owns the manycore.* metrics. All methods are nil-safe
// so the disabled path costs one comparison.
type telemetryHook struct {
	t         *telemetry.Telemetry
	reassigns *telemetry.Counter
	moves     *telemetry.Counter
	invalid   *telemetry.Counter
}

func newTelemetryHook(t *telemetry.Telemetry) *telemetryHook {
	return &telemetryHook{
		t:         t,
		reassigns: t.Counter("manycore.reassigns"),
		moves:     t.Counter("manycore.moves"),
		invalid:   t.Counter("manycore.invalid_batches"),
	}
}

// reassign records one applied batch of n moves.
//
//ampvet:hotpath
func (h *telemetryHook) reassign(n int) {
	if h == nil {
		return
	}
	h.reassigns.Inc()
	h.moves.Add(uint64(n))
}

// invalidInc records one malformed batch.
//
//ampvet:hotpath
func (h *telemetryHook) invalidInc() {
	if h == nil {
		return
	}
	h.invalid.Inc()
}

// flushRunEnd publishes the run-end gauges.
func (h *telemetryHook) flushRunEnd(s *System) {
	if h == nil {
		return
	}
	h.t.Gauge("manycore.cycles").Set(float64(s.cycle))
	h.t.Gauge("manycore.cores").Set(float64(len(s.cores)))
	h.t.Gauge("manycore.threads").Set(float64(len(s.threads)))
	var committed uint64
	var energy float64
	for _, t := range s.threads {
		committed += t.Arch.Committed
		energy += t.EnergyNJ
	}
	h.t.Gauge("manycore.committed").Set(float64(committed))
	h.t.Gauge("manycore.energy_nj").Set(energy)
}
