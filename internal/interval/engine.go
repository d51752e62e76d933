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
	"math"
	"math/bits"

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

	// closedWindows counts the windows Run took in closed form
	// (closedSpan), bumped once per closed stretch.
	closedWindows uint64

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
	e.closedWindows = 0
	e.acc = rateVec{}
}

// StallCycles implements cpu.Engine.
//
//ampvet:hotpath
func (e *Engine) StallCycles(n uint64) { e.stallCycles += n }

// closedSpanMin is the longest span Run keeps entirely in the window
// loop: a longer one runs its quiet stretches in closed form
// (closedSpan). Proposed's spans end at its 1000-instruction edges
// after about 6–8 windows, so they never pay the closed form's set-up.
// Chosen by measurement (EXPERIMENTS.md, "Closed-form interval spans").
const closedSpanMin = 16

// Run advances the engine by n windows of window cycles each: per
// window, the current phase's calibrated IPC (cold-start adjusted)
// converts cycles to committed instructions, with the fractional
// remainder carried across windows.
//
// n windows here are bit for bit n single-window calls. The window
// loop performs each window's float operations in the original order;
// a span longer than closedSpanMin hands its post-ramp stretches inside
// one phase to closedSpan, whose integer arithmetic gives the same
// commits and fraction, and decides again after each phase crossing,
// after each ramp window and after a window that puts the fraction on
// the new phase's grid. Commits that stay inside the current phase
// accumulate in done and land in the ledgers once (integer sums are
// order-free); a window that reaches a phase boundary writes everything
// back and takes commitBatch.
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
	for n > 0 {
		// The window loop below runs until n reaches stop or a window
		// crosses a phase edge; then the closed form may take over.
		var stop uint64
		if n > closedSpanMin {
			if sinceBind < rampInstr {
				stop = n - 1
			} else {
				j, k, f, retry := closedSpan(float64(ipc0*cycles), frac, phaseRem, n)
				e.closedWindows += j
				frac = f
				done += k
				sinceBind += k
				phaseRem -= k
				n -= j
				if retry {
					stop = n - 1
				}
			}
		}
		for ; n > stop; n-- {
			ipc := ipc0
			if sinceBind < rampInstr {
				ipc *= coldFactor(sinceBind)
			}
			// The conversion rounds the product, so no platform fuses it
			// into the sum: closedSpan relies on the rounded c.
			frac += float64(ipc * cycles)
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
			n--
			break
		}
	}
	e.fracCommit = frac
	e.land(done, phaseRem)
}

// closedSpan runs up to n post-ramp windows of one phase in closed
// form. Each window adds c = IPC × window to the carried fraction frac;
// the loop commits the sum's integer part and keeps the rest. Let c lie
// in [2^E, 2^(E+1) − 1] with E ≥ 0, and frac be a multiple of
// ulp(c) = 2^(E−52). Then every sum stays below 2^(E+1) on c's grid, so
// it is exact, and every window commits at least one instruction. So j
// windows are integer arithmetic in units of ulp(c): with M = 1/ulp(c),
// F = frac·M and C = c·M (c's significand), they commit
// ⌊(F + j·C)/M⌋ instructions and leave the fraction ((F + j·C) mod M)/M.
// The span stops before the window whose commits reach phaseRem: that
// window crosses the phase edge, and the loop runs it.
//
// It returns the windows run, their commits and the new fraction. With
// c outside the range nothing runs. With frac off c's grid nothing runs
// either, and retry asks for one loop window first: the loop's
// subtraction leaves a multiple of ulp(c).
//
//ampvet:hotpath
func closedSpan(c, frac float64, phaseRem, n uint64) (j, k uint64, fracOut float64, retry bool) {
	b := math.Float64bits(c)
	exp := int(b>>52) - 1023 // E: c is positive, and 0, NaN and ±Inf fall out of range
	if exp < 0 || exp > 52 {
		return 0, 0, frac, false
	}
	s := uint(52 - exp)
	m := uint64(1) << s       // M
	cm := b&(1<<52-1) | 1<<52 // C
	if cm > 1<<53-m {
		return 0, 0, frac, false // c > 2^(E+1) − 1: a sum can reach 2^(E+1) and round
	}
	fm := frac * float64(m) // exact: M is a power of two
	f := uint64(fm)
	if float64(f) != fm {
		return 0, 0, frac, true
	}
	// Window i stays inside the phase while F + i·C < phaseRem·M, a
	// 128-bit product as n·C is; divide only when the edge binds.
	capHi, capLo := phaseRem>>(64-s), phaseRem<<s
	hi, lo := bits.Mul64(n, cm)
	lo, carry := bits.Add64(lo, f, 0)
	hi += carry
	j = n
	if hi > capHi || hi == capHi && lo >= capLo {
		// j = ⌊(phaseRem·M − F − 1)/C⌋. The high word is at most
		// capHi < M ≤ C, so Div64 cannot overflow.
		rLo, borrow := bits.Sub64(capLo, f+1, 0)
		j, _ = bits.Div64(capHi-borrow, rLo, cm)
		hi, lo = bits.Mul64(j, cm)
		lo, carry = bits.Add64(lo, f, 0)
		hi += carry
	}
	return j, hi<<(64-s) | lo>>s, float64(lo&(m-1)) / float64(m), false
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

// Reach implements cpu.Engine with the larger of two sound answers. A
// window commits at most its cycles at the IPC of the phase it starts
// in (the cold-start factor only slows it), plus the carried fraction
// and a margin for rounding. So every window commits at most the bound
// calibration's fastest phase IPC times its cycles, plus 2 — enough
// for all n windows far from an edge, at the cost of one multiply.
// Near one, the windows that start before the current phase ends
// commit at most the current phase's IPC times their cycles, plus 2:
// capping the room at phaseRem-1 instructions keeps every window but
// the last inside the phase. Phases run 37.5–250 k instructions, so
// an edge almost always falls inside the current one.
//
//ampvet:hotpath
func (e *Engine) Reach(window, n, edge uint64) uint64 {
	if e.arch == nil {
		return n
	}
	committed := e.arch.Committed
	cycles := float64(window)
	m := cpu.ReachAt(committed, edge, uint64(e.cal.MaxPhaseIPC*cycles)+2, n)
	if m == n {
		return n
	}
	phaseEdge := min(edge, committed+e.phaseRem)
	return max(m, cpu.ReachAt(committed, phaseEdge, uint64(e.curIPC*cycles)+2, n))
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
