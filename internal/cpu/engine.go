package cpu

import "ampsched/internal/cache"

// Engine is the per-window simulation surface the AMP system drives.
// The cycle-level Core is the reference implementation ("detailed");
// internal/interval provides a calibrated analytic model ("interval")
// and a two-tier sampled engine ("sampled"). Schedulers never see an
// Engine — they observe ThreadArch through the amp.View, so policy
// decisions are fidelity-agnostic by construction.
//
// The contract mirrors Core exactly: Bind/Unbind move a thread on and
// off the engine (Unbind returns squashed in-flight work), Run
// advances the engine by a span of whole windows, StallCycles charges
// frozen swap-overhead cycles, and Stats returns the monotonic
// activity/cache ledger the power model integrates. Stride is the
// window the engine wants per scheduler poll — 1 for the detailed core
// (it must interleave with the other core every cycle a scheduler
// might act), larger for analytic engines that amortize bookkeeping.
type Engine interface {
	// Config returns the core configuration the engine models.
	Config() *Config
	// Fidelity names the engine's simulation fidelity ("detailed",
	// "interval", "sampled").
	Fidelity() string

	// Bind attaches a thread; the engine must be empty.
	Bind(src InstrSource, arch *ThreadArch)
	// Unbind squashes in-flight work and detaches the thread,
	// returning the number of squashed instructions.
	Unbind() uint64
	// Bound reports whether a thread is attached.
	Bound() bool
	// Arch returns the bound thread's architectural state (nil if
	// none).
	Arch() *ThreadArch
	// InFlight returns the number of in-flight (uncommitted)
	// instructions that would be squashed by Unbind.
	InFlight() int

	// Stats returns the monotonic activity and cache ledger.
	Stats() EngineStats

	// Run advances the engine by n consecutive windows of window
	// cycles each, starting at global time now. The result is bit for
	// bit that of n calls Run(now+i*window, window, 1): the run loop
	// hands an engine a whole span of windows between scheduler
	// decisions, and the engine may only batch what it can batch
	// without changing a single result.
	Run(now, window, n uint64)
	// MaxCommit bounds the instructions one window of the given length
	// can commit, for any window the engine runs until its thread is
	// next unbound. The run loop uses it to prove that a span ends
	// before an instruction limit or a scheduler's commit edge is
	// crossed; a bound that cannot be established is a huge value,
	// which confines the loop to single windows.
	MaxCommit(cycles uint64) uint64
	// Stride returns the engine's window in cycles (>= 1): the run
	// loop's scheduling granularity.
	Stride() uint64
	// StallCycles charges n frozen cycles (swap overhead): leakage
	// accrues, nothing executes.
	StallCycles(n uint64)

	// Reconfigure installs a new execution-unit set (core morphing).
	// The engine must be unbound.
	Reconfigure(units [NumUnitKinds]UnitSpec) error
}

// EngineFactory builds an engine for one core configuration. The AMP
// and manycore systems call it once per core at construction.
type EngineFactory func(cfg *Config) (Engine, error)

// StateResetter is the optional engine capability behind system
// pooling: ResetState clears every accumulated ledger (cycles,
// committed instructions, event and cache counters) so the engine's
// next run is bit-identical to one on a freshly constructed engine.
// Analytic engines whose whole state is re-derived at Bind implement
// it; the detailed Core deliberately does not — its caches and
// predictor tables are persistent microarchitectural state, and a
// pooled Core would leak one run's warm-up into the next. The engine
// must be unbound when ResetState is called.
type StateResetter interface {
	ResetState()
}

// EngineStats is a monotonic snapshot of everything the power model
// and telemetry need from an engine: the activity ledger, the
// instructions this engine committed (across all threads it has run —
// unlike ThreadArch.Committed, which migrates with the thread), and
// the cache-hierarchy counters.
type EngineStats struct {
	Act       Activity
	Committed uint64 //ampvet:unit instructions
	L1I       cache.Stats
	L1D       cache.Stats
	L2        cache.Stats
}

// Add returns s + o component-wise (used by the sampled engine to
// merge its detailed and interval halves).
func (s EngineStats) Add(o EngineStats) EngineStats {
	return EngineStats{
		Act:       s.Act.Add(o.Act),
		Committed: s.Committed + o.Committed,
		L1I:       s.L1I.Add(o.L1I),
		L1D:       s.L1D.Add(o.L1D),
		L2:        s.L2.Add(o.L2),
	}
}

// Sub returns s - o component-wise (interval deltas; o must be an
// earlier snapshot of s).
func (s EngineStats) Sub(o EngineStats) EngineStats {
	return EngineStats{
		Act:       s.Act.Sub(o.Act),
		Committed: s.Committed - o.Committed,
		L1I:       s.L1I.Sub(o.L1I),
		L1D:       s.L1D.Sub(o.L1D),
		L2:        s.L2.Sub(o.L2),
	}
}

// Detailed is the cycle-level engine: the out-of-order Core itself.
type Detailed = Core

// NewDetailed builds a cycle-level engine (alias of NewCore).
func NewDetailed(cfg *Config) *Detailed { return NewCore(cfg) }

// DetailedFactory is the EngineFactory for the cycle-level core; it is
// the default fidelity everywhere.
func DetailedFactory(cfg *Config) (Engine, error) { return NewCore(cfg), nil }

// FidelityDetailed is the fidelity label of the cycle-level core.
const FidelityDetailed = "detailed"

var _ Engine = (*Core)(nil)

// Fidelity implements Engine.
func (c *Core) Fidelity() string { return FidelityDetailed }

// Stride implements Engine: the detailed core must interleave with its
// sibling every cycle.
func (c *Core) Stride() uint64 { return 1 }

// Run advances the core cycle by cycle through the whole span: window
// boundaries mean nothing to a cycle-level pipeline.
//
//ampvet:hotpath
func (c *Core) Run(now, window, n uint64) {
	for end := now + window*n; now < end; now++ {
		c.Step(now)
	}
}

// MaxCommit implements Engine: the core retires at most CommitWidth
// instructions a cycle.
func (c *Core) MaxCommit(cycles uint64) uint64 {
	return uint64(c.cfg.CommitWidth) * cycles
}

// StallCycles charges n frozen cycles.
//
//ampvet:hotpath
func (c *Core) StallCycles(n uint64) { c.act.StallCycles += n }

// Stats implements Engine.
func (c *Core) Stats() EngineStats {
	return EngineStats{
		Act:       c.act,
		Committed: c.committed,
		L1I:       c.hier.L1I.Stats(),
		L1D:       c.hier.L1D.Stats(),
		L2:        c.hier.L2.Stats(),
	}
}
