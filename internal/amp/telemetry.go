package amp

import (
	"fmt"

	"ampsched/internal/cpu"
	"ampsched/internal/telemetry"
)

// telemetryHook bridges the System's event stream into a
// telemetry.Telemetry: counters and histograms for the amp layer,
// per-core activity gauges flushed at run end, and (when the telemetry
// has sinks) a structured event per system event. The metric handles
// are resolved once per Telemetry (telemetry.Handles), so building a
// system costs one lookup, and publishing is a handful of atomic adds
// and stores.
type telemetryHook struct {
	sys *System
	t   *telemetry.Telemetry
	*ampTel

	// engine holds each core's engine counters, resolved on the first
	// run-end flush: options (and thus this hook) are applied before
	// NewSystem builds the engines, and Reset keeps them.
	engine [2]*engineTel
	// fidelity caches System.Fidelity() for event stamping; resolved
	// on first event for the same reason.
	fidelity string
	// lastEngine tracks per-core engine snapshots so the per-engine
	// cycle/commit counters advance by run deltas.
	lastEngine [2]cpu.EngineStats
}

// ampTel is the amp layer's handle set.
type ampTel struct {
	runs           *telemetry.Counter
	swaps          *telemetry.Counter
	swapFailures   *telemetry.Counter
	swapsDelayed   *telemetry.Counter
	morphs         *telemetry.Counter
	watchdogResets *telemetry.Counter
	wedges         *telemetry.Counter
	cancels        *telemetry.Counter
	swapOverhead   *telemetry.Histogram

	// The run-end gauges: the global cycle, each core's activity and
	// each thread's totals.
	cycles  *telemetry.Gauge
	cores   [2]coreGauges
	threads [2]threadGauges
}

// coreGauges are one core's "cpu.core<i>.*" activity gauges.
type coreGauges struct {
	active, stall, fetched, exec, squashed *telemetry.Gauge
}

// threadGauges are one thread's "amp.thread<i>.*" totals.
type threadGauges struct {
	committed, energy, intPct, fpPct *telemetry.Gauge
}

// engineTel is one engine fidelity's "engine.<fidelity>.*" counters.
type engineTel struct {
	cycles, commits *telemetry.Counter
}

func newAmpTel(t *telemetry.Telemetry) *ampTel {
	a := &ampTel{
		runs:           t.Counter("amp.runs"),
		swaps:          t.Counter("amp.swaps"),
		swapFailures:   t.Counter("amp.swap_failures"),
		swapsDelayed:   t.Counter("amp.swaps_delayed"),
		morphs:         t.Counter("amp.morphs"),
		watchdogResets: t.Counter("amp.watchdog_resets"),
		wedges:         t.Counter("amp.wedges"),
		cancels:        t.Counter("amp.cancels"),
		swapOverhead:   t.Histogram("amp.swap_overhead_cycles"),
		cycles:         t.Gauge("amp.cycles"),
	}
	for i := 0; i < 2; i++ {
		p := fmt.Sprintf("cpu.core%d.", i)
		a.cores[i] = coreGauges{
			active:   t.Gauge(p + "active_cycles"),
			stall:    t.Gauge(p + "stall_cycles"),
			fetched:  t.Gauge(p + "fetched_ops"),
			exec:     t.Gauge(p + "exec_ops"),
			squashed: t.Gauge(p + "squashed_ops"),
		}
		p = fmt.Sprintf("amp.thread%d.", i)
		a.threads[i] = threadGauges{
			committed: t.Gauge(p + "committed"),
			energy:    t.Gauge(p + "energy_nj"),
			intPct:    t.Gauge(p + "int_pct"),
			fpPct:     t.Gauge(p + "fp_pct"),
		}
	}
	return a
}

func newTelemetryHook(s *System, t *telemetry.Telemetry) *telemetryHook {
	return &telemetryHook{sys: s, t: t, ampTel: telemetry.Handles(t, "amp", newAmpTel)}
}

// Event implements Observer.
//
//ampvet:hotpath
func (h *telemetryHook) Event(e Event) {
	switch e.Kind {
	case EventRunStart:
		h.runs.Inc()
	case EventRunEnd:
		h.flushRunEnd()
	case EventSwap:
		h.swaps.Inc()
		h.swapOverhead.Observe(e.Overhead)
		if e.Delayed {
			h.swapsDelayed.Inc()
		}
	case EventSwapFailed:
		h.swapFailures.Inc()
	case EventMorphOn, EventMorphOff:
		h.morphs.Inc()
	case EventWatchdogReset:
		h.watchdogResets.Inc()
	case EventWedged:
		h.wedges.Inc()
	case EventCanceled:
		h.cancels.Inc()
	}
	if h.t.Eventing() && e.Kind != EventWatchdogReset {
		if h.fidelity == "" {
			h.fidelity = h.sys.Fidelity()
		}
		te := telemetry.NewEvent(e.Kind.String())
		te.Cycle = e.Cycle
		te.Value = float64(e.Overhead)
		te.Detail = e.Reason
		te.Fidelity = h.fidelity
		if e.Delayed {
			te.Detail = "delayed"
		}
		h.t.Emit(te)
	}
}

// flushRunEnd publishes the end-of-run state of the cpu layer: global
// cycle, per-core activity and per-thread commit/energy totals. Gauges
// (not counters) so repeated runs on one system overwrite rather than
// double-count.
func (h *telemetryHook) flushRunEnd() {
	s := h.sys
	h.cycles.Set(float64(s.cycle))
	for c := 0; c < 2; c++ {
		st := s.engines[c].Stats()
		act := st.Act
		g := &h.cores[c]
		g.active.Set(float64(act.Cycles))
		g.stall.Set(float64(act.StallCycles))
		g.fetched.Set(float64(act.FetchedOps))
		g.exec.Set(float64(act.TotalOps()))
		g.squashed.Set(float64(act.Squashed))

		// Per-engine fidelity-labeled counters: cycles simulated and
		// instructions committed by this engine, summed across runs.
		d := st.Sub(h.lastEngine[c])
		h.lastEngine[c] = st
		if h.engine[c] == nil {
			fid := s.engines[c].Fidelity()
			h.engine[c] = telemetry.Handles(h.t, "amp.engine."+fid, func(t *telemetry.Telemetry) *engineTel {
				return &engineTel{cycles: t.Counter("engine." + fid + ".cycles"),
					commits: t.Counter("engine." + fid + ".commits")}
			})
		}
		h.engine[c].cycles.Add(d.Act.Cycles + d.Act.StallCycles)
		h.engine[c].commits.Add(d.Committed)
	}
	for i := 0; i < 2; i++ {
		th := s.threads[i]
		g := &h.threads[i]
		g.committed.Set(float64(th.Arch.Committed))
		g.energy.Set(th.EnergyNJ)
		g.intPct.Set(th.Arch.IntPct())
		g.fpPct.Set(th.Arch.FPPct())
	}
}

var _ Observer = (*telemetryHook)(nil)
