// Package telemetry is the observability spine of the simulator: a
// concurrency-safe metrics registry (counters, gauges, histograms)
// plus a structured event stream with pluggable sinks (JSONL, CSV
// summary, an expvar-style HTTP endpoint).
//
// The package is deliberately a leaf — it imports nothing from the
// simulator — so every layer (cpu, amp, sched, fault, experiments) can
// publish into one shared *Telemetry without import cycles.
//
// Everything is nil-tolerant: a nil *Telemetry, a nil *Registry and
// nil metric handles are valid no-op receivers. Instrumented code
// therefore resolves its handles once ("amp.swaps", ...) and calls
// Inc/Observe unconditionally; with telemetry disabled the calls are
// nil-check no-ops and the hot path stays allocation-free.
package telemetry

import "sync"

// Telemetry bundles a metrics registry with an optional event sink.
// The zero value is unusable; build one with New. A nil *Telemetry is
// a valid "disabled" instance: every method no-ops and every handle it
// returns is a no-op.
type Telemetry struct {
	reg *Registry

	mu    sync.Mutex
	sinks []Sink

	setsMu sync.Mutex
	sets   map[string]any // Handles' resolved handle sets, by key
}

// New returns an enabled Telemetry publishing events to the given
// sinks (none is fine: metrics only).
func New(sinks ...Sink) *Telemetry {
	t := &Telemetry{reg: NewRegistry()}
	for _, s := range sinks {
		if s != nil {
			t.sinks = append(t.sinks, s)
		}
	}
	return t
}

// Registry returns the metrics registry (nil when t is nil).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Counter resolves a counter handle by name. Safe on a nil receiver.
func (t *Telemetry) Counter(name string) *Counter { return t.Registry().Counter(name) }

// Gauge resolves a gauge handle by name. Safe on a nil receiver.
func (t *Telemetry) Gauge(name string) *Gauge { return t.Registry().Gauge(name) }

// Histogram resolves a histogram handle by name. Safe on a nil
// receiver.
func (t *Telemetry) Histogram(name string) *Histogram { return t.Registry().Histogram(name) }

// Handles returns the handle set build resolves from t under key. The
// first call with a key builds the set; every later call returns that
// same set, so code that needs a set per run (a scheduler, a run-end
// flush) pays one map lookup instead of one registry lookup, and one
// name concatenation, per metric. Keys are namespaced by the calling
// package ("sched.proposed", "amp.engine.interval"), and one key is
// always built by one build function, so always into one type. A nil
// t has no handle sets: Handles returns nil without calling build.
func Handles[T any](t *Telemetry, key string, build func(*Telemetry) *T) *T {
	if t == nil {
		return nil
	}
	t.setsMu.Lock()
	defer t.setsMu.Unlock()
	if set, ok := t.sets[key]; ok {
		return set.(*T)
	}
	set := build(t)
	if t.sets == nil {
		t.sets = make(map[string]any)
	}
	t.sets[key] = set
	return set
}

// Eventing reports whether Emit delivers anywhere. Callers that must
// build an Event cheaply can skip construction entirely when false.
//
//ampvet:hotpath
func (t *Telemetry) Eventing() bool {
	return t != nil && len(t.sinks) > 0
}

// Emit publishes one event to every sink. Safe on a nil receiver.
//
//ampvet:hotpath
func (t *Telemetry) Emit(e Event) {
	if t == nil || len(t.sinks) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Close emits a final "summary" event carrying the registry snapshot,
// then closes every sink, returning the first error.
//
//ampvet:allow lockcheck t.mu must be held across sink teardown so a concurrent Emit can never write to a closed sink
func (t *Telemetry) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, s := range t.sinks {
		if ss, ok := s.(SummarySink); ok {
			ss.EmitSummary(t.reg.Snapshot())
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.sinks = nil
	return first
}
