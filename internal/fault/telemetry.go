package fault

import "ampsched/internal/telemetry"

// planTel holds a plan's resolved telemetry handles. The zero value
// (telemetry disabled) is fully functional: every handle is nil and
// every call a no-op, so injection sites publish unconditionally.
type planTel struct {
	t *telemetry.Telemetry

	dropped    *telemetry.Counter
	stale      *telemetry.Counter
	noised     *telemetry.Counter
	swapFails  *telemetry.Counter
	swapDelays *telemetry.Counter
}

// event publishes one injection to the event stream when it is live.
// detail names the fault subkind ("swap_fail", "sample_drop", ...).
func (pt *planTel) event(cycle uint64, detail string) {
	if pt.t.Eventing() {
		e := telemetry.NewEvent("fault")
		e.Cycle = cycle
		e.Detail = detail
		pt.t.Emit(e)
	}
}

// SetTelemetry publishes the plan's injections into t: counters
// "fault.{samples_dropped,samples_stale,samples_noised,swaps_failed,
// swaps_delayed}" and — when t has sinks — one "fault" event per
// injection with the subkind in Detail. Observers already built by
// Observer share the plan's handles, so SetTelemetry may be called
// before or after wiring the observers. A nil t disables publication
// again.
func (p *Plan) SetTelemetry(t *telemetry.Telemetry) {
	if t == nil {
		p.tel = planTel{}
		return
	}
	p.tel = planTel{
		t:          t,
		dropped:    t.Counter("fault.samples_dropped"),
		stale:      t.Counter("fault.samples_stale"),
		noised:     t.Counter("fault.samples_noised"),
		swapFails:  t.Counter("fault.swaps_failed"),
		swapDelays: t.Counter("fault.swaps_delayed"),
	}
}
