// Package interval implements the fast analytic simulation engines
// behind the cpu.Engine seam: a calibrated mechanistic interval model
// ("interval") that advances a thread whole scheduling windows at a
// time, and a two-tier sampled engine ("sampled") that interleaves
// detailed warm-up windows with interval fast-forward.
//
// The interval engine never synthesizes individual instructions: it
// reads each phase's statistical description straight from the
// workload generator, computes a per-phase IPC with the mechanistic
// model in model.go, anchors it to a short detailed-mode run of the
// same (core config, benchmark) pair (calibrate.go), and then Skip()s
// the generator across whole windows. Per-window cost is a handful of
// float operations, which is what buys the paper-scale experiment
// (fig7full: 80 pairs x 500M instructions) its minutes-not-hours
// runtime. Determinism is preserved end to end: no clocks, no random
// draws, and a calibration store keyed by pure inputs.
package interval

import (
	"fmt"

	"ampsched/internal/cpu"
	"ampsched/internal/isa"
	"ampsched/internal/workload"
)

// DefaultStride is the cycle batch the interval engine asks the AMP
// loop for. At 128 cycles and a hard IPC ceiling of 4 this is at most
// ~512 instructions per window — under the 1000-instruction scheduler
// windows, so monitor-visible committed counters advance smoothly
// enough for every policy, while halving the per-window loop overhead
// relative to a 64-cycle stride (the fig7full budget is set by this
// constant times the per-window cost).
const DefaultStride = 128

// FidelityInterval labels the analytic engine.
const FidelityInterval = "interval"

// Engine is the calibrated interval-model implementation of
// cpu.Engine.
type Engine struct {
	cfg   *cpu.Config
	units [cpu.NumUnitKinds]cpu.UnitSpec

	gen  *workload.Generator
	arch *cpu.ThreadArch
	cal  *Calibration

	activeCycles uint64 //ampvet:unit cycles
	stallCycles  uint64 //ampvet:unit cycles
	committed    uint64 //ampvet:unit instructions
	sinceBind    uint64 //ampvet:unit cycles

	// Mirror of the generator's phase position, so the hot path never
	// has to call back into the generator: phase/phaseRem track what
	// gen.PhasePos() would return, and pendingSkip is the generator
	// advance deferred until the next phase boundary (or Unbind) —
	// nothing outside the engine reads the generator while it is bound.
	phase       int
	phaseRem    uint64 //ampvet:unit instructions
	pendingSkip uint64 //ampvet:unit instructions

	// Per-class attribution is deferred the same way: phaseN counts
	// instructions committed in the current phase segment that have not
	// yet been attributed to CommittedByClass; syncClasses materializes
	// them at phase boundaries, Unbind, Stats, and on demand through
	// the arch's SyncClasses hook (installed at Bind) when a scheduler
	// or monitor reads the class counters mid-phase.
	phaseN uint64 //ampvet:unit instructions
	curIPC float64
	syncFn func()

	fracCommit float64
	classFrac  [isa.NumClasses]float64

	// acc holds the event-rate ledger of all *previous* binds; the
	// current bind's share is cal.Rates[i]*sinceBind, computed lazily
	// in Stats (rates are constant while bound, so accumulating them
	// per window would only add nRates multiply-adds to the hot path).
	acc rateVec
}

var _ cpu.Engine = (*Engine)(nil)

// New builds an interval engine for cfg. The configuration is
// validated and must not change afterwards.
func New(cfg *cpu.Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{cfg: cfg, units: cfg.Units}
	e.syncFn = e.syncClasses
	return e
}

// Factory returns the cpu.EngineFactory for the interval engine.
func Factory() cpu.EngineFactory {
	return func(cfg *cpu.Config) (cpu.Engine, error) { return New(cfg), nil }
}

// FactoryFor maps a -fidelity flag value to its engine factory.
// The empty string means detailed.
func FactoryFor(fidelity string) (cpu.EngineFactory, error) {
	switch fidelity {
	case "", cpu.FidelityDetailed:
		return cpu.DetailedFactory, nil
	case FidelityInterval:
		return Factory(), nil
	case FidelitySampled:
		return SampledFactory(), nil
	default:
		return nil, fmt.Errorf("interval: unknown fidelity %q (want detailed, interval or sampled)", fidelity)
	}
}

// Config implements cpu.Engine.
func (e *Engine) Config() *cpu.Config { return e.cfg }

// Fidelity implements cpu.Engine.
func (e *Engine) Fidelity() string { return FidelityInterval }

// Stride implements cpu.Engine.
func (e *Engine) Stride() uint64 { return DefaultStride }

// Bound implements cpu.Engine.
func (e *Engine) Bound() bool { return e.arch != nil }

// Arch implements cpu.Engine.
func (e *Engine) Arch() *cpu.ThreadArch { return e.arch }

// InFlight implements cpu.Engine: the analytic engine commits
// instantly, nothing is ever in flight.
func (e *Engine) InFlight() int { return 0 }

// Bind attaches a thread. The source must be a *workload.Generator —
// the model reads phase descriptions, not instructions; trace-driven
// sources need the detailed engine.
func (e *Engine) Bind(src cpu.InstrSource, arch *cpu.ThreadArch) {
	if e.arch != nil {
		panic(fmt.Sprintf("interval: %s: Bind with thread already bound", e.cfg.Name))
	}
	gen, ok := src.(*workload.Generator)
	if !ok {
		panic(fmt.Sprintf("interval: %s: source %T is not a *workload.Generator (trace sources require -fidelity detailed)", e.cfg.Name, src))
	}
	if arch.CodeSize == 0 {
		panic("interval: Bind with zero CodeSize")
	}
	e.gen = gen
	e.arch = arch
	e.cal = calibrationFor(e.cfg, e.units, gen.Benchmark())
	e.sinceBind = 0
	e.fracCommit = 0
	e.classFrac = [isa.NumClasses]float64{}
	e.phase, e.phaseRem = gen.PhasePos()
	e.pendingSkip = 0
	e.phaseN = 0
	e.curIPC = e.cal.PhaseIPC[e.phase]
	arch.SyncClasses = e.syncFn
}

// Unbind detaches the thread, folding the bind's event-rate share
// into the ledger. The analytic engine holds no in-flight work, so
// nothing is squashed.
func (e *Engine) Unbind() uint64 {
	if e.arch == nil {
		return 0
	}
	e.syncClasses()
	e.arch.SyncClasses = nil
	if e.pendingSkip > 0 {
		e.gen.Skip(e.pendingSkip)
		e.pendingSkip = 0
	}
	sb := float64(e.sinceBind)
	for i := 0; i < nRates; i++ {
		e.acc[i] += e.cal.Rates[i] * sb
	}
	e.sinceBind = 0
	e.gen = nil
	e.arch = nil
	e.cal = nil
	return 0
}

// ResetState implements cpu.StateResetter: it clears the accumulated
// cycle, commit and event-rate ledgers, so a pooled engine's next run
// is bit-identical to one on a freshly constructed engine (everything
// else is re-derived at Bind). The engine must be unbound.
func (e *Engine) ResetState() {
	if e.arch != nil {
		panic(fmt.Sprintf("interval: %s: ResetState with a bound thread", e.cfg.Name))
	}
	e.activeCycles = 0
	e.stallCycles = 0
	e.committed = 0
	e.acc = rateVec{}
}

// StallCycles implements cpu.Engine.
//
//ampvet:hotpath
func (e *Engine) StallCycles(n uint64) { e.stallCycles += n }

// Run advances the engine by n windows of window cycles each: per
// window, the current phase's calibrated IPC (cold-start adjusted)
// converts cycles to committed instructions, with the fractional
// remainder carried across windows.
//
// The span loop performs exactly the per-window float operations in
// the same order, so n windows here are bit for bit n single-window
// calls; only the bookkeeping moves into locals. Commits that stay
// inside the current phase accumulate in done and land in the ledgers
// once (integer sums are order-free); a window that reaches a phase
// boundary writes everything back and takes commitBatch.
//
//ampvet:hotpath
func (e *Engine) Run(now, window, n uint64) {
	_ = now
	if e.arch == nil {
		return
	}
	e.activeCycles += window * n
	cycles := float64(window)
	ipc0 := e.curIPC
	frac := e.fracCommit
	sinceBind := e.sinceBind
	phaseRem := e.phaseRem
	var done uint64 //ampvet:unit instructions
	for ; n > 0; n-- {
		ipc := ipc0
		if sinceBind < rampInstr {
			ipc *= coldFactor(sinceBind)
		}
		frac += ipc * cycles
		k := uint64(frac)
		if k == 0 {
			continue
		}
		frac -= float64(k)
		if k < phaseRem {
			// Common case: the whole batch lands inside the current
			// phase. Class attribution and the generator advance are
			// deferred (phaseN / pendingSkip).
			done += k
			sinceBind += k
			phaseRem -= k
			continue
		}
		e.land(done, phaseRem)
		done = 0
		e.commitBatch(k)
		ipc0, sinceBind, phaseRem = e.curIPC, e.sinceBind, e.phaseRem
	}
	e.fracCommit = frac
	e.land(done, phaseRem)
}

// land credits done in-phase commits to every ledger and installs the
// span's phase position.
//
//ampvet:hotpath
func (e *Engine) land(done, phaseRem uint64) {
	e.arch.Committed += done
	e.arch.NextSeq += done
	e.committed += done
	e.sinceBind += done
	e.phaseN += done
	e.pendingSkip += done
	e.phaseRem = phaseRem
}

// MaxCommit implements cpu.Engine: a window commits at most its cycles
// at the bound calibration's fastest phase IPC (the cold-start factor
// only slows it), plus the carried fraction and a margin for rounding.
// Unbound, the engine commits nothing.
func (e *Engine) MaxCommit(cycles uint64) uint64 {
	if e.cal == nil {
		return 0
	}
	return uint64(e.cal.MaxPhaseIPC*float64(cycles)) + 2
}

// commitBatch retires k instructions across one or more phase
// boundaries, materializing the deferred class attribution under each
// phase's mix before advancing (syncClasses), and batching the
// generator advance into pendingSkip — Skip crosses into the next
// phase exactly as per-chunk calls would.
//
//ampvet:hotpath
func (e *Engine) commitBatch(k uint64) {
	arch := e.arch
	for k > 0 {
		m := k
		if m > e.phaseRem {
			m = e.phaseRem
		}
		arch.Committed += m
		arch.NextSeq += m
		e.committed += m
		e.sinceBind += m
		e.phaseN += m
		e.pendingSkip += m
		e.phaseRem -= m
		if e.phaseRem == 0 {
			e.syncClasses()
			e.gen.Skip(e.pendingSkip)
			e.pendingSkip = 0
			e.phase, e.phaseRem = e.gen.PhasePos()
			e.curIPC = e.cal.PhaseIPC[e.phase]
		}
		k -= m
	}
}

// syncClasses materializes the deferred per-class attribution of the
// current phase segment: phaseN instructions are split by the phase's
// nonzero mix entries with fractional accumulators (per-class drift is
// bounded by one instruction each). Called at phase boundaries and
// Unbind, and through ThreadArch.Sync whenever a scheduler or monitor
// reads CommittedByClass mid-phase.
func (e *Engine) syncClasses() {
	if e.phaseN == 0 {
		return
	}
	mf := float64(e.phaseN)
	e.phaseN = 0
	arch := e.arch
	for _, cs := range e.cal.classes[e.phase] {
		f := e.classFrac[cs.cls] + cs.frac*mf
		whole := uint64(f)
		e.classFrac[cs.cls] = f - float64(whole)
		arch.CommittedByClass[cs.cls] += whole
	}
}

// Stats implements cpu.Engine: cycle counters are exact, event and
// cache counters are the accumulated calibration rates floored to
// integers (monotonic, so interval deltas work — the current bind's
// share grows with sinceBind and is folded into acc at Unbind).
func (e *Engine) Stats() cpu.EngineStats {
	acc := e.acc
	if e.arch != nil {
		sb := float64(e.sinceBind)
		for i := 0; i < nRates; i++ {
			acc[i] += e.cal.Rates[i] * sb
		}
	}
	act, l1i, l1d, l2 := materialize(&acc)
	act.Cycles = e.activeCycles
	act.StallCycles = e.stallCycles
	return cpu.EngineStats{Act: act, Committed: e.committed, L1I: l1i, L1D: l1d, L2: l2}
}

// Reconfigure implements cpu.Engine (core morphing): subsequent binds
// calibrate against the new unit set.
func (e *Engine) Reconfigure(units [cpu.NumUnitKinds]cpu.UnitSpec) error {
	if e.arch != nil {
		return fmt.Errorf("interval: %s: Reconfigure with a bound thread", e.cfg.Name)
	}
	for k := cpu.UnitKind(0); k < cpu.NumUnitKinds; k++ {
		if units[k].Count <= 0 || units[k].Latency <= 0 {
			return fmt.Errorf("interval: %s: invalid unit %s in reconfiguration: %+v",
				e.cfg.Name, k, units[k])
		}
	}
	e.units = units
	return nil
}
