// Package amp assembles the asymmetric dual-core system of the paper:
// two cpu.Cores of different flavors, two threads, a pluggable
// scheduler that may swap the threads between the cores at run time,
// and per-thread energy attribution for the IPC/Watt metric.
//
// Swapping is modeled the way §VI-C describes it: both pipelines are
// squashed, both cores freeze for a configurable overhead (default
// 1000 cycles, sweepable 100..1,000,000), and the migrated threads
// find cold caches and untrained branch predictors on their new cores
// — the caches and predictor tables belong to the core, not the
// thread.
package amp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ampsched/internal/cache"
	"ampsched/internal/cpu"
	"ampsched/internal/power"
	"ampsched/internal/workload"
)

// DefaultSwapOverheadCycles is the reconfiguration cost used in §VII.
const DefaultSwapOverheadCycles = 1000

// MaxOverheadCycles bounds the configurable reconfiguration overheads.
// The paper sweeps swap overheads up to 1M cycles; anything beyond
// this bound is a configuration mistake, not an experiment.
const MaxOverheadCycles = 1 << 30

// ErrWedged is the sentinel matched (via errors.Is) by every run
// abort: a system that stops committing instructions, or one that
// exhausts its cycle budget. The concrete error is a *WedgedError
// carrying the state dump.
var ErrWedged = errors.New("amp: wedged")

// WedgedError reports a run that was aborted by the watchdog (no
// commit progress) or by the cycle budget. It wraps ErrWedged.
type WedgedError struct {
	// Cycle is the global cycle at which the run was aborted.
	Cycle uint64
	// Window is the watchdog period (progress aborts) or the budget
	// (budget aborts) in cycles.
	Window uint64
	// Reason distinguishes "no commit progress" from "cycle budget
	// exhausted".
	Reason string
	// Detail is a free-form state dump (per-thread commit counts,
	// in-flight instructions).
	Detail string
}

// Error implements error.
func (e *WedgedError) Error() string {
	return fmt.Sprintf("amp: %s after %d cycles at cycle %d (%s)",
		e.Reason, e.Window, e.Cycle, e.Detail)
}

// Unwrap makes errors.Is(err, ErrWedged) match.
func (e *WedgedError) Unwrap() error { return ErrWedged }

// ContextSwitchCycles is the 2 ms Linux scheduler quantum expressed in
// cycles at 2 GHz — the decision interval of the HPE and Round Robin
// schemes and of the proposed scheme's forced fairness swap.
const ContextSwitchCycles = 4_000_000

// Thread is one software thread: a workload generator plus the
// architectural state that migrates with it.
type Thread struct {
	ID   int
	Name string
	Gen  *workload.Generator
	Arch cpu.ThreadArch

	// EnergyNJ is the energy attributed to this thread so far: the
	// full (dynamic + static) energy of whichever core it occupied,
	// for as long as it occupied it.
	//ampvet:unit nanojoules
	EnergyNJ float64
}

// NewThread builds a thread running bench. addrBase must differ
// between the two threads of a system.
func NewThread(id int, bench *workload.Benchmark, seed, addrBase uint64) *Thread {
	t := &Thread{}
	t.Reset(id, bench, seed, addrBase)
	return t
}

// Reset re-arms the thread in place for a new run of bench, reusing
// the generator's random source. A reset thread is bit-identical to
// one from NewThread — the contract the pooled pair sweep relies on.
func (t *Thread) Reset(id int, bench *workload.Benchmark, seed, addrBase uint64) {
	t.ID = id
	t.Name = bench.Name
	if t.Gen == nil {
		t.Gen = workload.NewGenerator(bench, seed, addrBase)
	} else {
		t.Gen.Reset(bench, seed, addrBase)
	}
	t.Arch = cpu.ThreadArch{
		CodeBase: addrBase + (1 << 36), // code lives away from data
		CodeSize: bench.EffectiveCodeFootprint(),
	}
	t.EnergyNJ = 0
}

// View is the read-only interface a MoveScheduler uses to observe the
// system. It is implemented by *System.
type View interface {
	// Cycle returns the current global cycle.
	Cycle() uint64
	// ThreadOnCore returns the thread index bound to the core.
	ThreadOnCore(core int) int
	// CoreOfThread returns the core index the thread is bound to.
	CoreOfThread(thread int) int
	// Arch returns the thread's architectural state, including the
	// committed-per-class counters the hardware monitors expose.
	Arch(thread int) *cpu.ThreadArch
	// ThreadEnergyNJ returns the energy attributed to the thread so
	// far (flushing core-level accounting first).
	ThreadEnergyNJ(thread int) float64
	// LastSwapCycle returns the cycle of the most recent swap (0 if
	// none has happened).
	LastSwapCycle() uint64
	// SwapFailures returns the number of requested swaps the
	// reconfiguration controller dropped (fault injection). A
	// scheduler that requested a swap and sees this counter advance
	// without LastSwapCycle moving must treat the request as lost and
	// retry with backoff rather than assuming the new binding.
	SwapFailures() uint64
	// CoreConfig returns the configuration of a core; schedulers use
	// Name to identify the INT and FP flavors.
	CoreConfig(core int) *cpu.Config
	// L2Stats returns the monotonic last-level-cache counters of a
	// core. Since each core runs exactly one thread, interval deltas
	// attribute cleanly to the occupant — the LLC miss-rate signal
	// the paper's §VII extension folds into the swapping conditions.
	L2Stats(core int) cache.Stats
	// FreqGHz returns the (common) core clock.
	FreqGHz() float64
	// NumCores returns the core count (2 on the dual-core system).
	NumCores() int
	// NumThreads returns the thread count. Threads beyond the core
	// count time-share; ThreadOnCore returns -1 for an idle core and
	// CoreOfThread returns ParkCore for an unbound thread.
	NumThreads() int
	// AffinityMask returns the thread's pool-affinity bit mask: bit p
	// set means the thread may run on cores of pool p. AllPools means
	// unconstrained.
	AffinityMask(thread int) uint64
	// CorePool returns the pool index a core belongs to. Pools group
	// cores of one flavor (e.g. INT vs FP, or big vs small).
	CorePool(core int) int
}

// SchedulerStats are optional bookkeeping counters a scheduler can
// expose (decision points evaluated, swaps it requested, rule
// triggers vetoed by a guard).
type SchedulerStats struct {
	DecisionPoints uint64
	SwapRequests   uint64
	Vetoes         uint64
	// FailedRequests counts swap requests the scheduler observed to be
	// dropped by the reconfiguration controller (fault injection).
	FailedRequests uint64
}

// StatsReporter is implemented by schedulers that count decisions.
type StatsReporter interface {
	SchedStats() SchedulerStats
}

// CountPublisher is implemented by schedulers that keep telemetry
// counts in plain fields during a run rather than adding to shared
// counters per decision. RunContext calls PublishCounts once as it
// returns — completed, canceled or wedged — and the scheduler adds the
// counts since its last publish to its shared counters.
type CountPublisher interface {
	PublishCounts()
}

// SwapOutcome is a fault injector's verdict on one swap request.
type SwapOutcome struct {
	// Fail drops the request: no rebinding happens and the system's
	// SwapFailures counter advances.
	Fail bool
	// OverheadFactor multiplies the configured swap overhead for this
	// swap (a delayed reconfiguration). Values <= 0 mean 1.
	OverheadFactor float64
}

// SwapInjector decides the fate of each requested swap. A nil injector
// means every swap succeeds at the configured overhead. Implemented by
// fault.Plan for deterministic fault injection.
type SwapInjector interface {
	SwapOutcome(cycle uint64) SwapOutcome
}

// DefaultWatchdogCycles is the default progress-check period: a system
// that commits nothing for this long is declared wedged.
const DefaultWatchdogCycles = 8_000_000

// Config holds the system-level knobs.
type Config struct {
	// SwapOverheadCycles freezes both cores for this long on a swap.
	// 0 means DefaultSwapOverheadCycles.
	SwapOverheadCycles uint64
	// MorphOverheadCycles freezes both cores for this long on a core
	// morph (defaults to SwapOverheadCycles: both are drain + rewire
	// operations).
	MorphOverheadCycles uint64
	// WatchdogCycles is the progress-check period: Run returns a
	// *WedgedError if no instruction commits for this long. 0 means
	// DefaultWatchdogCycles.
	WatchdogCycles uint64
	// CycleBudget bounds one Run call's total cycles (0 = unlimited).
	// A run that exceeds it returns a *WedgedError with the partial
	// Result, so batch layers can report the pair as degraded instead
	// of spinning forever.
	CycleBudget uint64
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.SwapOverheadCycles == 0 {
		c.SwapOverheadCycles = DefaultSwapOverheadCycles
	}
	if c.MorphOverheadCycles == 0 {
		c.MorphOverheadCycles = c.SwapOverheadCycles
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = DefaultWatchdogCycles
	}
	return c
}

// Validate reports the first nonsensical knob combination. It is
// called on the defaults-resolved config by NewSystem.
func (c *Config) Validate() error {
	if c.SwapOverheadCycles > MaxOverheadCycles {
		return fmt.Errorf("amp: swap overhead %d exceeds the maximum %d cycles",
			c.SwapOverheadCycles, uint64(MaxOverheadCycles))
	}
	if c.MorphOverheadCycles > MaxOverheadCycles {
		return fmt.Errorf("amp: morph overhead %d exceeds the maximum %d cycles",
			c.MorphOverheadCycles, uint64(MaxOverheadCycles))
	}
	if c.CycleBudget > 0 && c.SwapOverheadCycles >= c.CycleBudget {
		return fmt.Errorf("amp: swap overhead %d cycles does not fit the cycle budget %d",
			c.SwapOverheadCycles, c.CycleBudget)
	}
	if c.CycleBudget > 0 && c.MorphOverheadCycles >= c.CycleBudget {
		return fmt.Errorf("amp: morph overhead %d cycles does not fit the cycle budget %d",
			c.MorphOverheadCycles, c.CycleBudget)
	}
	return nil
}

// System is the dual-core AMP.
type System struct {
	engines [2]cpu.Engine
	models  [2]*power.Model
	threads [2]*Thread
	binding [2]int // binding[core] = thread index
	pools   [2]int // pools[core] = flavor pool index
	sched   MoveScheduler
	cfg     Config

	// morphPol is sched as a MorphPolicy (nil when it manages no
	// morphing), waker is sched as a Waker (nil when it cannot declare
	// its wakes, or when it is a MorphPolicy — MorphTick declares
	// nothing and is polled every window), and publisher is sched as a
	// CountPublisher. All three are resolved when the scheduler is
	// installed, not per window.
	morphPol  MorphPolicy
	waker     Waker
	publisher CountPublisher
	// wakeCycle and wakeCommit cache the scheduler's NextWake: no Tick
	// can act before the cycle reaches wakeCycle or thread t's
	// Committed reaches wakeCommit[t]. Refreshed after every Tick.
	wakeCycle  uint64    //ampvet:unit cycles
	wakeCommit [2]uint64 //ampvet:unit instructions

	// engineFactory builds the two engines (WithEngine); nil means
	// cpu.DetailedFactory.
	engineFactory cpu.EngineFactory
	// injector, when non-nil, is consulted on every swap request
	// (WithFaultPlan: failed or delayed reconfigurations).
	injector SwapInjector
	// stride is the cycles-per-iteration of the run loop: the largest
	// Stride() of the two engines (1 for detailed cores, preserving
	// the original cycle-interleaved loop bit for bit).
	stride uint64

	cycle         uint64 //ampvet:unit cycles
	swaps         uint64
	swapFailures  uint64
	morphs        uint64
	morphed       bool
	lastSwapCycle uint64
	stallUntil    uint64

	lastAct   [2]cpu.Activity
	lastCache [2]power.CacheStats

	obs Observer       // unified event observer (nil = disabled)
	tel *telemetryHook // set by WithTelemetry, for direct metric access

	timeline *timelineState
}

// NewSystem wires two cores, two threads and a scheduler together.
// Thread i starts on core i. sched may be nil (static assignment).
// Zero-valued Config knobs take their documented defaults; nonsensical
// combinations (see Config.Validate) are rejected with an error.
// Instrumentation (observers, fault plans, telemetry) is attached with
// functional options: WithObserver, WithFaultPlan, WithTelemetry.
func NewSystem(coreCfgs [2]*cpu.Config, threads [2]*Thread, sched MoveScheduler, cfg Config, opts ...Option) (*System, error) {
	if threads[0] == nil || threads[1] == nil {
		return nil, fmt.Errorf("amp: NewSystem needs two threads")
	}
	if coreCfgs[0] == nil || coreCfgs[1] == nil {
		return nil, fmt.Errorf("amp: NewSystem needs two core configurations")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		threads: threads,
		binding: [2]int{0, 1},
		cfg:     cfg,
	}
	s.setSched(sched)
	// Cores of distinct configurations form distinct pools, in core
	// order: the canonical INT/FP pair becomes pools 0 and 1.
	if coreCfgs[1].Name != coreCfgs[0].Name {
		s.pools[1] = 1
	}
	// Options run before engine construction so WithEngine can select
	// the factory.
	for _, opt := range opts {
		if opt != nil {
			opt(s)
		}
	}
	factory := s.engineFactory
	if factory == nil {
		factory = cpu.DetailedFactory
	}
	s.stride = 1
	for i := 0; i < 2; i++ {
		eng, err := factory(coreCfgs[i])
		if err != nil {
			return nil, fmt.Errorf("amp: engine for core %d: %w", i, err)
		}
		s.engines[i] = eng
		s.models[i] = power.NewModel(coreCfgs[i])
		eng.Bind(threads[i].Gen, &threads[i].Arch)
		if st := eng.Stride(); st > s.stride {
			s.stride = st
		}
	}
	if sched != nil {
		sched.Reset(s)
	}
	s.refreshWake()
	return s, nil
}

// setSched installs a scheduler and resolves its optional
// capabilities.
func (s *System) setSched(sched MoveScheduler) {
	s.sched = sched
	s.morphPol, _ = sched.(MorphPolicy)
	s.publisher, _ = sched.(CountPublisher)
	s.waker = nil
	if s.morphPol == nil {
		s.waker, _ = sched.(Waker)
	}
}

// refreshWake re-reads when the scheduler can next act: never without
// a scheduler, at once (every window) for one that is not a Waker.
func (s *System) refreshWake() {
	switch {
	case s.sched == nil:
		s.wakeCycle = math.MaxUint64
		s.wakeCommit = [2]uint64{math.MaxUint64, math.MaxUint64}
	case s.waker != nil:
		s.wakeCycle, s.wakeCommit = s.waker.NextWake()
	default:
		s.wakeCycle, s.wakeCommit = 0, [2]uint64{}
	}
}

// Reset re-arms a system built by NewSystem for a fresh run: new
// threads, a new scheduler, a new config. The engines and power models
// are reused, which requires every engine to implement
// cpu.StateResetter — the interval engine does; the detailed core
// deliberately does not (its caches and predictors are persistent
// state that would leak across pooled runs), and Reset refuses it with
// an error so callers fall back to a fresh NewSystem.
//
// A reset system is bit-identical to a freshly constructed one with
// the same construction-time options: observers, telemetry and the
// engine factory persist. The Config is replaced, any injector a
// WithFaultPlan option installed is dropped (fault plans are stateful
// and per run), and a timeline is discarded (re-enable per run).
func (s *System) Reset(threads [2]*Thread, sched MoveScheduler, cfg Config) error {
	if threads[0] == nil || threads[1] == nil {
		return fmt.Errorf("amp: Reset needs two threads")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	var resetters [2]cpu.StateResetter
	for i := 0; i < 2; i++ {
		r, ok := s.engines[i].(cpu.StateResetter)
		if !ok {
			return fmt.Errorf("amp: Reset: %s engine %q keeps persistent microarchitectural state; build a fresh system instead",
				s.engines[i].Fidelity(), s.engines[i].Config().Name)
		}
		resetters[i] = r
	}
	s.engines[0].Unbind()
	s.engines[1].Unbind()
	if s.morphed {
		// Restore the baseline unit sets and power models (the engine
		// Config is the construction-time one; Reconfigure never
		// mutates it).
		for i := 0; i < 2; i++ {
			if err := s.engines[i].Reconfigure(s.engines[i].Config().Units); err != nil {
				return fmt.Errorf("amp: Reset: restore units of core %d: %w", i, err)
			}
			s.models[i] = power.NewModel(s.engines[i].Config())
		}
		s.morphed = false
	}
	resetters[0].ResetState()
	resetters[1].ResetState()
	s.threads = threads
	s.binding = [2]int{0, 1}
	s.setSched(sched)
	s.cfg = cfg
	s.injector = nil
	s.cycle, s.swaps, s.swapFailures, s.morphs = 0, 0, 0, 0
	s.lastSwapCycle, s.stallUntil = 0, 0
	s.lastAct = [2]cpu.Activity{}
	s.lastCache = [2]power.CacheStats{}
	s.timeline = nil
	if s.tel != nil {
		// ResetState zeroed the engine ledgers; the telemetry deltas
		// must count the next run from zero too.
		s.tel.lastEngine = [2]cpu.EngineStats{}
	}
	s.engines[0].Bind(threads[0].Gen, &threads[0].Arch)
	s.engines[1].Bind(threads[1].Gen, &threads[1].Arch)
	if sched != nil {
		sched.Reset(s)
	}
	s.refreshWake()
	return nil
}

// Detach unbinds both engines, flushing their deferred attribution
// (class counts, generator advance) into the currently bound threads.
// Callers that recycle thread objects across runs MUST Detach before
// resetting the threads: an engine left bound holds pointers into the
// thread's generator and ledger, and the flush inside a later
// Reset/Unbind would land in the recycled state instead of the old
// run's. Idempotent; Reset on a detached system skips the flush.
func (s *System) Detach() {
	s.engines[0].Unbind()
	s.engines[1].Unbind()
}

// Poolable reports whether Reset can re-arm this system for a fresh
// run: every engine implements cpu.StateResetter.
func (s *System) Poolable() bool {
	for i := 0; i < 2; i++ {
		if _, ok := s.engines[i].(cpu.StateResetter); !ok {
			return false
		}
	}
	return true
}

// MustSystem is NewSystem panicking on error: for examples, benchmarks
// and tests where the configuration is statically known to be valid.
func MustSystem(coreCfgs [2]*cpu.Config, threads [2]*Thread, sched MoveScheduler, cfg Config, opts ...Option) *System {
	s, err := NewSystem(coreCfgs, threads, sched, cfg, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// --- View implementation -------------------------------------------

// Cycle implements View.
func (s *System) Cycle() uint64 { return s.cycle }

// ThreadOnCore implements View.
func (s *System) ThreadOnCore(core int) int { return s.binding[core] }

// CoreOfThread implements View.
func (s *System) CoreOfThread(thread int) int {
	if s.binding[0] == thread {
		return 0
	}
	return 1
}

// Arch implements View.
func (s *System) Arch(thread int) *cpu.ThreadArch { return &s.threads[thread].Arch }

// ThreadEnergyNJ implements View.
func (s *System) ThreadEnergyNJ(thread int) float64 {
	s.flushEnergy()
	return s.threads[thread].EnergyNJ
}

// LastSwapCycle implements View.
func (s *System) LastSwapCycle() uint64 { return s.lastSwapCycle }

// SwapFailures implements View.
func (s *System) SwapFailures() uint64 { return s.swapFailures }

// CoreConfig implements View.
func (s *System) CoreConfig(core int) *cpu.Config { return s.engines[core].Config() }

// L2Stats implements View.
func (s *System) L2Stats(core int) cache.Stats { return s.engines[core].Stats().L2 }

// FreqGHz implements View.
//
//ampvet:unit cycles_per_second
func (s *System) FreqGHz() float64 { return s.engines[0].Config().FreqGHz }

// NumCores implements View.
func (s *System) NumCores() int { return 2 }

// NumThreads implements View.
func (s *System) NumThreads() int { return 2 }

// AffinityMask implements View: dual-core threads are unconstrained.
func (s *System) AffinityMask(thread int) uint64 { return AllPools }

// CorePool implements View.
func (s *System) CorePool(core int) int { return s.pools[core] }

// --------------------------------------------------------------------

// Swaps returns the number of swaps performed so far.
func (s *System) Swaps() uint64 { return s.swaps }

// Core exposes a core as the concrete cycle-level model, or nil when
// the system runs a different fidelity (tests and power accounting;
// fidelity-agnostic callers should use Engine).
func (s *System) Core(i int) *cpu.Core {
	c, _ := s.engines[i].(*cpu.Core)
	return c
}

// Engine exposes a core's simulation engine.
func (s *System) Engine(i int) cpu.Engine { return s.engines[i] }

// Fidelity describes the system's simulation fidelity: the engines'
// common label, or "a+b" if they somehow differ.
func (s *System) Fidelity() string {
	a, b := s.engines[0].Fidelity(), s.engines[1].Fidelity()
	if a == b {
		return a
	}
	return a + "+" + b
}

// Thread exposes a thread.
func (s *System) Thread(i int) *Thread { return s.threads[i] }

// flushEnergy attributes each core's un-attributed energy to its
// current occupant thread.
func (s *System) flushEnergy() {
	for c := 0; c < 2; c++ {
		st := s.engines[c].Stats()
		act := st.Act
		cs := power.CacheStats{L1I: st.L1I, L1D: st.L1D, L2: st.L2}
		dAct := act.Sub(s.lastAct[c])
		dCS := cs.Sub(s.lastCache[c])
		e := s.models[c].EnergyNJ(dAct, dCS)
		s.threads[s.binding[c]].EnergyNJ += e
		s.lastAct[c] = act
		s.lastCache[c] = cs
	}
}

// requestSwap routes a scheduler's swap request through the fault
// injector (if any): the request may be dropped (SwapFailures
// advances, nothing else happens) or delayed (overhead multiplied).
func (s *System) requestSwap() {
	factor := 1.0
	if s.injector != nil {
		out := s.injector.SwapOutcome(s.cycle)
		if out.Fail {
			s.swapFailures++
			s.emit(Event{Kind: EventSwapFailed, Cycle: s.cycle})
			return
		}
		if out.OverheadFactor > 0 {
			factor = out.OverheadFactor
		}
	}
	s.swap(factor)
}

// swap exchanges the two threads between the cores, paying the
// configured overhead times factor (a delayed reconfiguration).
func (s *System) swap(factor float64) {
	s.flushEnergy() // attribute up to now under the old binding
	s.engines[0].Unbind()
	s.engines[1].Unbind()
	s.binding[0], s.binding[1] = s.binding[1], s.binding[0]
	s.engines[0].Bind(s.threads[s.binding[0]].Gen, &s.threads[s.binding[0]].Arch)
	s.engines[1].Bind(s.threads[s.binding[1]].Gen, &s.threads[s.binding[1]].Arch)
	s.swaps++
	overhead := s.cfg.SwapOverheadCycles
	if factor != 1 {
		overhead = uint64(float64(overhead) * factor)
	}
	// The swap lands at the end of cycle s.cycle (which already
	// executed), so the frozen window is [cycle+1, cycle+overhead].
	s.stallUntil = s.cycle + 1 + overhead
	// Swaps are dated from their completion: interval-based rules
	// (forced fairness swaps, in particular) measure execution time
	// since the threads actually started running on their new cores,
	// so an overhead larger than the interval cannot re-trigger an
	// immediate swap storm.
	s.lastSwapCycle = s.stallUntil
	s.emit(Event{Kind: EventSwap, Cycle: s.cycle, Overhead: overhead, Delayed: factor != 1})
}

// watchdogWindow is the progress-check period used by solo runs.
const watchdogWindow = DefaultWatchdogCycles

// ThreadResult summarizes one thread after a run.
type ThreadResult struct {
	Name       string
	Committed  uint64  //ampvet:unit instructions
	EnergyNJ   float64 //ampvet:unit nanojoules
	IPC        float64 //ampvet:unit ipc
	Watts      float64 //ampvet:unit watts
	IPCPerWatt float64 //ampvet:unit ipc_per_watt
	IntPct     float64
	FPPct      float64
}

// Result summarizes a completed run.
type Result struct {
	Scheduler string
	Cycles    uint64 //ampvet:unit cycles
	Swaps     uint64
	// FailedSwaps counts requested swaps the injector dropped.
	FailedSwaps uint64
	Morphs      uint64
	Threads     [2]ThreadResult
	Sched       SchedulerStats
}

// stateDump renders the wedge-relevant state for WedgedError.Detail.
func (s *System) stateDump() string {
	return fmt.Sprintf("t0=%d t1=%d inflight=%d/%d",
		s.threads[0].Arch.Committed, s.threads[1].Arch.Committed,
		s.engines[0].InFlight(), s.engines[1].InFlight())
}

// Run advances the system until either thread has committed limit
// instructions, then returns the per-thread metrics. A system that
// stops committing instructions for Config.WatchdogCycles, or runs
// past Config.CycleBudget, aborts with a *WedgedError (matched by
// errors.Is(err, ErrWedged)) alongside the partial Result, so callers
// can report the run as degraded instead of hanging.
//
//ampvet:allow ctxcheck Run is the documented context-free variant of RunContext; Background is its contract
func (s *System) Run(limit uint64) (Result, error) {
	return s.RunContext(context.Background(), limit)
}

// CtxPollWindows is the context poll period in run-loop windows: a
// cancelable run selects on ctx.Done() after the first window that
// ends at or past each multiple of CtxPollWindows strides — every
// 4096 cycles on the detailed core, every 524,288 at the analytic
// engines' 128-cycle stride. Counting windows, not cycles, bounds a
// cancel's latency by the loop's work (a detailed window is one core
// cycle, and a closed-form analytic span costs a few integer
// operations however many windows it covers), and lets analytic spans
// run on to the scheduler's next wake, as they do when the context
// can never be canceled.
const CtxPollWindows = 1 << 12

// NextCtxPoll returns the cycle at which a run loop of the given
// stride, at cycle, next polls its context: the first multiple of
// CtxPollWindows strides above cycle. The poll runs after the first
// window that ends at or past it.
func NextCtxPoll(cycle, stride uint64) uint64 {
	period := CtxPollWindows * stride
	return (cycle/period + 1) * period
}

// MustRun is Run panicking on a wedge: for examples, benchmarks and
// tests where the workload is statically known to make progress.
func (s *System) MustRun(limit uint64) Result {
	res, err := s.Run(limit)
	if err != nil {
		panic(err)
	}
	return res
}

// result snapshots the per-thread metrics at the current cycle.
func (s *System) result() Result {
	s.flushEnergy()
	res := Result{Cycles: s.cycle, Swaps: s.swaps, FailedSwaps: s.swapFailures, Morphs: s.morphs}
	if s.sched != nil {
		res.Scheduler = s.sched.Name()
		if sr, ok := s.sched.(StatsReporter); ok {
			res.Sched = sr.SchedStats()
		}
	} else {
		res.Scheduler = "static"
	}
	freq := s.FreqGHz()
	seconds := float64(s.cycle) / (freq * 1e9)
	for i := 0; i < 2; i++ {
		th := s.threads[i]
		tr := ThreadResult{
			Name:      th.Name,
			Committed: th.Arch.Committed,
			EnergyNJ:  th.EnergyNJ,
			IntPct:    th.Arch.IntPct(),
			FPPct:     th.Arch.FPPct(),
		}
		if s.cycle > 0 {
			tr.IPC = float64(th.Arch.Committed) / float64(s.cycle)
		}
		if seconds > 0 {
			tr.Watts = th.EnergyNJ * 1e-9 / seconds
		}
		if tr.Watts > 0 {
			tr.IPCPerWatt = tr.IPC / tr.Watts
		}
		res.Threads[i] = tr
	}
	return res
}
