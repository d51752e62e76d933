// Package experiments regenerates every table and figure of the
// paper's evaluation (§VII and the methodology sections it depends
// on). Each experiment is registered by the paper's figure/table name
// and renders report.Tables; cmd/ampexperiments drives them.
//
// Scale note: the paper runs 500M instructions per workload with a
// 2 ms (4M cycle) context-switch interval. To keep the harness
// laptop-fast while preserving every qualitative relationship, the
// default Options scale run lengths down and scale the coarse-grain
// decision interval with them (the fine:coarse decision-rate ratio
// stays >100x). Paper-scale settings are a flag away; see DESIGN.md §7.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/interval"
	"ampsched/internal/metrics"
	"ampsched/internal/pairstore"
	"ampsched/internal/profilegen"
	"ampsched/internal/rng"
	"ampsched/internal/sched"
	"ampsched/internal/telemetry"
	"ampsched/internal/workload"
)

// Options control the scale of every experiment.
type Options struct {
	// Pairs is the number of random two-benchmark combinations for
	// the main comparison (paper: 80).
	Pairs int
	// InstrLimit ends a pair run when either thread commits this
	// many instructions (paper: 500M; default scaled down).
	InstrLimit uint64
	// ContextSwitch is the coarse-grain decision interval in cycles:
	// the HPE and Round Robin period and the proposed scheme's forced
	// fairness-swap interval (paper: 4M cycles = 2 ms @ 2 GHz;
	// default scaled down with InstrLimit).
	ContextSwitch uint64
	// SwapOverhead is the reconfiguration cost in cycles (§VI-C).
	SwapOverhead uint64
	// ProfileInstrLimit bounds each profiling solo run (§V step 2).
	ProfileInstrLimit uint64
	// RuleWindow is the §VI-A committed-instruction window.
	RuleWindow uint64
	// RulePairs is the §VI-A random-combination count (paper: 50).
	RulePairs int
	// SensitivityPairs is the per-configuration pair count for the
	// Fig. 6 sweep and the §VI-C overhead sweep.
	SensitivityPairs int
	// Seed makes everything deterministic.
	Seed uint64
	// Parallelism caps the worker pool for the main pair sweep. Each
	// pair's three runs are independent simulations, so parallel
	// execution is deterministic (results are keyed by pair index).
	// 0 means GOMAXPROCS.
	Parallelism int
	// FaultRate, when positive, injects monitor and swap faults at
	// this uniform rate into every pair run (see internal/fault).
	FaultRate float64
	// FaultSeed seeds the fault plans; runs are deterministic in
	// (Seed, FaultSeed, FaultRate).
	FaultSeed uint64
	// CycleBudget, when positive, bounds every pair run's cycle count;
	// a run that exhausts it is reported wedged instead of spinning.
	CycleBudget uint64
	// Fidelity selects the simulation engine for every pair run:
	// "detailed" (default, cycle-accurate), "interval" (calibrated
	// analytic model, ~2 orders of magnitude faster) or "sampled"
	// (detailed warm-up windows + interval fast-forward). Profiling
	// and rule derivation always run detailed — they are the ground
	// truth the schedulers were built against. The nxm sweep treats
	// the empty string as "interval": detailed simulation of hundreds
	// of cores is possible but pointlessly slow for a scaling curve.
	Fidelity string
	// NXMCores are the machine sizes of the nxm scaling sweep.
	NXMCores []int
	// NXMThreadsPerCore oversubscribes each nxm machine: an N-core
	// rung runs N*NXMThreadsPerCore threads.
	NXMThreadsPerCore int
	// NXMCycles is the fixed horizon of one nxm policy run.
	NXMCycles uint64
	// NXMQuantum is the decision quantum handed to every nxm policy.
	NXMQuantum uint64
}

// DefaultOptions returns the scaled-down defaults.
func DefaultOptions() Options {
	return Options{
		Pairs:             80,
		InstrLimit:        1_500_000,
		ContextSwitch:     400_000,
		SwapOverhead:      amp.DefaultSwapOverheadCycles,
		ProfileInstrLimit: 2_500_000,
		RuleWindow:        1000,
		RulePairs:         50,
		SensitivityPairs:  10,
		Seed:              7,
		NXMCores:          []int{4, 16, 64, 256},
		NXMThreadsPerCore: 8,
		NXMCycles:         200_000,
		NXMQuantum:        10_000,
	}
}

// PaperScaleOptions returns the paper's full-size parameters (hours of
// CPU time).
func PaperScaleOptions() Options {
	o := DefaultOptions()
	o.InstrLimit = 500_000_000
	o.ContextSwitch = amp.ContextSwitchCycles
	o.ProfileInstrLimit = 50_000_000
	return o
}

// Validate reports the first problem with the options.
func (o *Options) Validate() error {
	if o.Pairs <= 0 {
		return fmt.Errorf("experiments: Pairs must be positive")
	}
	if o.InstrLimit == 0 || o.ProfileInstrLimit == 0 {
		return fmt.Errorf("experiments: instruction limits must be positive")
	}
	if o.ContextSwitch == 0 {
		return fmt.Errorf("experiments: ContextSwitch must be positive")
	}
	if o.SwapOverhead == 0 {
		return fmt.Errorf("experiments: SwapOverhead must be positive")
	}
	if o.RuleWindow == 0 || o.RulePairs <= 0 || o.SensitivityPairs <= 0 {
		return fmt.Errorf("experiments: rule/sensitivity parameters must be positive")
	}
	if o.FaultRate < 0 || o.FaultRate > 1 {
		return fmt.Errorf("experiments: FaultRate %g outside [0,1]", o.FaultRate)
	}
	if _, err := interval.FactoryFor(o.Fidelity); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	// Zero-valued NXM fields mean "use the defaults" (resolved by
	// nxmParams), so pre-NXM Options literals stay valid.
	for _, n := range o.NXMCores {
		if n <= 0 {
			return fmt.Errorf("experiments: NXMCores entry %d must be positive", n)
		}
	}
	if o.NXMThreadsPerCore < 0 {
		return fmt.Errorf("experiments: NXMThreadsPerCore must not be negative")
	}
	return nil
}

// Pair is one two-benchmark combination.
type Pair struct {
	A, B *workload.Benchmark
}

// Label renders "benchA+benchB".
func (p Pair) Label() string { return p.A.Name + "+" + p.B.Name }

// RandomPairs draws n distinct unordered pairs from the full pool,
// deterministically from seed.
func RandomPairs(n int, seed uint64) []Pair {
	pool := workload.All()
	r := rng.New(seed)
	seen := make(map[[2]int]bool)
	var pairs []Pair
	maxPairs := len(pool) * (len(pool) - 1) / 2
	if n > maxPairs {
		n = maxPairs
	}
	for len(pairs) < n {
		a := r.Intn(len(pool))
		b := r.Intn(len(pool) - 1)
		if b >= a {
			b++
		}
		key := [2]int{min(a, b), max(a, b)}
		if seen[key] {
			continue
		}
		seen[key] = true
		pairs = append(pairs, Pair{A: pool[key[0]], B: pool[key[1]]})
	}
	return pairs
}

// SchedFactory builds a fresh scheduler instance for one run. The
// runner supplies the options (telemetry, fault observer factories)
// at each call site; a factory that constructs a scheduler ignoring
// them is still valid.
type SchedFactory func(opts ...sched.Option) amp.MoveScheduler

// Runner caches the expensive shared state (profiling, estimators,
// the main pair sweep) across experiments. The lazy accessors
// (Profile, Matrix, Surface, Sweep) are safe for concurrent first use:
// parallel callers — the server runs many jobs against one shared
// Runner — collapse onto a single computation and share its result.
type Runner struct {
	Opt    Options
	IntCfg *cpu.Config
	FPCfg  *cpu.Config

	// src, when set by Derived, is the Runner whose cached profiling
	// artifacts this one shares; the lazy accessors delegate to it on
	// first use instead of re-collecting.
	src *Runner

	profileOnce sync.Once
	profile     *profilegen.Profile
	matrixOnce  sync.Once
	matrix      *profilegen.RatioMatrix
	matrixErr   error
	surfaceOnce sync.Once
	surface     *profilegen.Surface
	surfaceErr  error
	sweepMu     sync.Mutex
	sweep       *SweepResult

	// optsOnce caches the per-run option slices and the resolved engine
	// factory: they depend only on Opt and Telemetry, so building them
	// per run would put slice and closure allocations on the sweep's
	// hot path.
	optsOnce      sync.Once
	engineFactory cpu.EngineFactory
	optsErr       error
	schedOpts     []sched.Option
	ampOpts       []amp.Option

	// scratch pools per-caller run state; see runScratch.
	scratch sync.Pool

	// Progress, if non-nil, receives one-line status updates.
	Progress func(string)

	// RunObserver, if non-nil, supplies one amp event observer per
	// pair run (nil return = that run unobserved), called once per run
	// in submission order, so the batch identity suite can compare
	// event streams. Observed runs never reuse pooled systems — the
	// observer is per-run construction state — making this a
	// test/diagnostics seam, not a hot path.
	RunObserver func(index int, p Pair) amp.Observer

	// Telemetry, if non-nil, receives counters and events from every
	// run the Runner launches: the amp/sched/fault layers plus
	// "experiments.pairs_done"/"experiments.pairs_failed" and the
	// per-run wall-time histogram "experiments.run_wall_us". Safe to
	// share across the parallel sweep.
	Telemetry *telemetry.Telemetry

	// BaseContext, if non-nil, bounds every RunPair/Sweep call that is
	// not handed an explicit context (RunPairContext/SweepContext).
	BaseContext context.Context

	// Store, if non-nil, is the pair store a sweep resumes from:
	// SweepContext restores every pair outcome it holds (counted in
	// "experiments.pairs_restored") and stores and saves each clean
	// outcome as soon as it finishes, so an interrupted sweep simulates
	// only the pairs it lacks. See store.go.
	Store *pairstore.Cache
}

// NewRunner builds a Runner over the paper's two cores.
func NewRunner(opt Options) (*Runner, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return &Runner{
		Opt:    opt,
		IntCfg: cpu.IntCoreConfig(),
		FPCfg:  cpu.FPCoreConfig(),
	}, nil
}

func (r *Runner) progress(format string, args ...interface{}) {
	if r.Progress != nil {
		r.Progress(fmt.Sprintf(format, args...))
	}
}

// baseCtx resolves the context used by the context-less entry points.
//
//ampvet:allow ctxcheck Background is the documented fallback when the caller sets no BaseContext
func (r *Runner) baseCtx() context.Context {
	if r.BaseContext != nil {
		return r.BaseContext
	}
	return context.Background()
}

// Profile runs (or returns the cached) §V profiling pass over the nine
// representative benchmarks. Concurrent first callers block on one
// collection and share the result.
func (r *Runner) Profile() *profilegen.Profile {
	r.profileOnce.Do(func() {
		if r.src != nil {
			r.profile = r.src.Profile()
			return
		}
		r.progress("profiling 9 representative benchmarks on both cores...")
		r.profile = profilegen.Collect(r.IntCfg, r.FPCfg, workload.Representative(),
			profilegen.ProfileConfig{
				InstrLimit:   r.Opt.ProfileInstrLimit,
				SampleCycles: r.Opt.ContextSwitch,
				Seed:         r.Opt.Seed,
			})
	})
	return r.profile
}

// Matrix returns the cached ratio-matrix estimator (Fig. 3). The
// first call's outcome — result or error — is sticky and shared by
// every later (or concurrent) caller.
func (r *Runner) Matrix() (*profilegen.RatioMatrix, error) {
	r.matrixOnce.Do(func() {
		if r.src != nil {
			r.matrix, r.matrixErr = r.src.Matrix()
			return
		}
		r.matrix, r.matrixErr = profilegen.BuildRatioMatrix(r.Profile())
	})
	return r.matrix, r.matrixErr
}

// Surface returns the cached regression estimator (Fig. 4). Like
// Matrix, the first outcome is sticky and concurrency-safe.
func (r *Runner) Surface() (*profilegen.Surface, error) {
	r.surfaceOnce.Do(func() {
		if r.src != nil {
			r.surface, r.surfaceErr = r.src.Surface()
			return
		}
		r.surface, r.surfaceErr = profilegen.FitSurface(r.Profile(), 2)
	})
	return r.surface, r.surfaceErr
}

// Derived returns a new Runner over opt that shares this Runner's
// cached §V profiling artifacts. The share is lazy: artifacts are
// forced on the derived Runner's first use, not at derivation time, so
// a server can derive on its submit path without blocking on a
// profiling pass. Runner contains sync state and must not be copied;
// callers that vary one option (the resilience fault sweep, the
// overhead sweep, the server's runner dedup) derive instead.
//
// A derived runner uses its base's profile even when SharesProfile(opt)
// is false. fig7full and perfbench's paperscale rely on that: they run
// at the paper's 4M-cycle context switch on a profile sampled at the
// scaled one. The pair store keys a sweep's records by the profiling
// runner's window and budget for this reason. opt must still keep the
// base's Seed, which the keys do not record separately.
func (r *Runner) Derived(opt Options) *Runner {
	return &Runner{
		Opt:         opt,
		IntCfg:      r.IntCfg,
		FPCfg:       r.FPCfg,
		src:         r,
		Progress:    r.Progress,
		Telemetry:   r.Telemetry,
		BaseContext: r.BaseContext,
		Store:       r.Store,
	}
}

// SharesProfile reports whether opt would produce byte-identical §V
// profiling artifacts to this Runner's: the profiling pass depends
// only on the workload seed, the sample window (the context-switch
// quantum) and the per-benchmark instruction budget, never on the
// sweep-side knobs (swap overhead, fault rate/seed, instruction limit,
// fidelity). When it returns true, Derived(opt) is sound.
func (r *Runner) SharesProfile(opt Options) bool {
	return opt.Seed == r.Opt.Seed &&
		opt.ContextSwitch == r.Opt.ContextSwitch &&
		opt.ProfileInstrLimit == r.Opt.ProfileInstrLimit
}

// pairSeed derives the workload seeds for pair index i so that the
// same pair sees identical instruction streams under every scheduler.
func (r *Runner) pairSeed(i, thread int) uint64 {
	return r.Opt.Seed*1_000_003 + uint64(i)*64 + uint64(thread)
}

// faultSeed derives a per-run fault-plan seed so the same pair index
// always draws the same fault sequence.
func (r *Runner) faultSeed(i int) uint64 {
	return r.Opt.FaultSeed ^ (uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
}

// runOpts resolves the cached engine factory and option slices shared
// by every run. The slices never carry per-run state (fault plans and
// observers are appended onto copies; see Runner.arm).
func (r *Runner) runOpts() (cpu.EngineFactory, []sched.Option, []amp.Option, error) {
	r.optsOnce.Do(func() {
		r.engineFactory, r.optsErr = interval.FactoryFor(r.Opt.Fidelity)
		if r.optsErr != nil {
			return
		}
		r.ampOpts = []amp.Option{amp.WithEngine(r.engineFactory)}
		if r.Telemetry != nil {
			r.schedOpts = []sched.Option{sched.WithTelemetry(r.Telemetry)}
			r.ampOpts = append(r.ampOpts, amp.WithTelemetry(r.Telemetry))
		}
	})
	return r.engineFactory, r.schedOpts, r.ampOpts, r.optsErr
}

// RunPair executes one pair under the scheduler made by factory, as a
// batch of one. A wedged run (watchdog or cycle budget) or a panicking
// scheduler comes back as an error, never as a crash.
func (r *Runner) RunPair(i int, p Pair, factory SchedFactory) (amp.Result, error) {
	return r.RunPairContext(r.baseCtx(), i, p, factory)
}

// RunPairContext is RunPair bounded by ctx: a canceled context stops
// the simulation at the next check point and surfaces ctx's error
// (wrapped; errors.Is-matchable) with the partial result.
func (r *Runner) RunPairContext(ctx context.Context, i int, p Pair, factory SchedFactory) (amp.Result, error) {
	run := [1]PairRun{{Index: i, Pair: p, Factory: factory}}
	r.RunPairsBatch(ctx, run[:])
	return run[0].Result, run[0].Err
}

// observeRun publishes one run's wall time and outcome.
func (r *Runner) observeRun(p Pair, d time.Duration, err error) {
	t := r.Telemetry
	if t == nil {
		return
	}
	t.Histogram("experiments.run_wall_us").Observe(uint64(d.Microseconds()))
	if t.Eventing() {
		e := telemetry.NewEvent("pair_run")
		e.Pair = p.Label()
		e.Value = d.Seconds()
		if err != nil {
			e.Detail = err.Error()
		}
		t.Emit(e)
	}
}

// ProposedFactory builds the paper's default proposed scheduler with
// the runner's (possibly scaled) forced-swap interval.
func (r *Runner) ProposedFactory() SchedFactory {
	return func(opts ...sched.Option) amp.MoveScheduler {
		cfg := sched.DefaultProposedConfig()
		cfg.ForceInterval = r.Opt.ContextSwitch
		return sched.NewProposed(cfg, opts...)
	}
}

// HPEFactory builds the HPE reference scheduler with the given
// estimator.
func (r *Runner) HPEFactory(est sched.Estimator) SchedFactory {
	return func(opts ...sched.Option) amp.MoveScheduler {
		cfg := sched.DefaultHPEConfig()
		cfg.Interval = r.Opt.ContextSwitch
		return sched.NewHPE(cfg, est, opts...)
	}
}

// RRFactory builds a Round Robin scheduler swapping every multiple
// context-switch intervals.
func (r *Runner) RRFactory(multiple int) SchedFactory {
	return func(opts ...sched.Option) amp.MoveScheduler {
		return sched.NewRoundRobinInterval(uint64(multiple)*r.Opt.ContextSwitch, opts...)
	}
}

// PairOutcome bundles one pair's results under the three schemes. A
// pair whose simulation wedged or panicked is flagged Failed with the
// reason in Err; its numeric fields are whatever was salvaged and must
// not enter aggregates.
type PairOutcome struct {
	Pair     Pair
	Proposed amp.Result
	HPE      amp.Result
	RR       amp.Result

	VsHPE metrics.PairComparison
	VsRR  metrics.PairComparison

	Failed bool
	Err    string
}

// SweepResult is the main §VII dataset.
type SweepResult struct {
	Outcomes []PairOutcome
}

// Failed counts the degraded (excluded) outcomes.
func (s *SweepResult) Failed() int {
	n := 0
	for i := range s.Outcomes {
		if s.Outcomes[i].Failed {
			n++
		}
	}
	return n
}

// Completed returns the outcomes that finished cleanly, in pair order.
func (s *SweepResult) Completed() []PairOutcome {
	out := make([]PairOutcome, 0, len(s.Outcomes))
	for i := range s.Outcomes {
		if !s.Outcomes[i].Failed {
			out = append(out, s.Outcomes[i])
		}
	}
	return out
}

// Sweep runs (or returns the cached) main comparison: every random
// pair under proposed, HPE(matrix) and Round Robin. Pairs execute on
// a worker pool (Options.Parallelism); every simulation is
// independent and seeded per pair, so the result is identical to a
// sequential sweep. A pair whose run wedges or panics becomes a
// degraded outcome (Failed set, reason in Err) — the remaining pairs
// still complete, and Sweep only errors when every pair failed.
func (r *Runner) Sweep() (*SweepResult, error) {
	return r.SweepContext(r.baseCtx())
}

// SweepContext is Sweep bounded by ctx. On cancellation the workers
// stop promptly, unfinished pairs come back as degraded outcomes
// carrying the context error, and the partial SweepResult is returned
// alongside ctx's error without being cached. Concurrent callers
// serialize on one mutex: the first runs the sweep (its workers still
// fan out), later callers block and then return the cached result.
//
//ampvet:allow lockcheck sweepMu is a deliberate singleflight: holding it across the whole sweep (store restore, worker fan-out) is how later callers wait for the cached result
func (r *Runner) SweepContext(ctx context.Context) (*SweepResult, error) {
	r.sweepMu.Lock()
	defer r.sweepMu.Unlock()
	if r.sweep != nil {
		return r.sweep, nil
	}
	if _, err := r.Matrix(); err != nil {
		return nil, err
	}
	pairs := RandomPairs(r.Opt.Pairs, r.Opt.Seed)
	out := &SweepResult{Outcomes: make([]PairOutcome, len(pairs))}
	keys, todo := r.restore(pairs, out.Outcomes)

	workers := r.Opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(todo) {
		workers = len(todo)
	}

	// Workers claim one pair at a time from the ones left to simulate
	// and store each outcome as soon as it finishes.
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		done atomic.Int64
	)
	done.Store(int64(len(pairs) - len(todo)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(todo) {
					return
				}
				i := todo[k]
				if cerr := ctx.Err(); cerr != nil {
					// Don't start new simulations after cancellation;
					// the pair is flagged, not silently zero.
					out.Outcomes[i] = PairOutcome{Pair: pairs[i], Failed: true,
						Err: fmt.Sprintf("experiments: pair %s: %v", pairs[i].Label(), cerr)}
					continue
				}
				out.Outcomes[i] = r.runOutcome(ctx, i, pairs[i])
				r.persist(keys, i, out.Outcomes[i])
				r.observeOutcome(&out.Outcomes[i])
				if e := out.Outcomes[i].Err; e != "" {
					r.progress("pair %d/%d DEGRADED (%s): %s", done.Add(1), len(pairs), pairs[i].Label(), e)
				} else {
					r.progress("pair %d/%d done (%s)", done.Add(1), len(pairs), pairs[i].Label())
				}
			}
		}()
	}
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		return out, cerr
	}
	if n := out.Failed(); n == len(pairs) {
		return nil, fmt.Errorf("experiments: all %d pairs failed; first: %s", n, out.Outcomes[0].Err)
	}
	r.sweep = out
	return out, nil
}

// observeOutcome publishes one pair outcome's progress counters.
func (r *Runner) observeOutcome(po *PairOutcome) {
	if r.Telemetry == nil {
		return
	}
	if po.Failed {
		r.Telemetry.Counter("experiments.pairs_failed").Inc()
	} else {
		r.Telemetry.Counter("experiments.pairs_done").Inc()
	}
}

// WeightedVsHPE extracts the per-pair weighted improvements over HPE,
// excluding degraded pairs.
func (s *SweepResult) WeightedVsHPE() []float64 {
	out := make([]float64, 0, len(s.Outcomes))
	for i := range s.Outcomes {
		if !s.Outcomes[i].Failed {
			out = append(out, s.Outcomes[i].VsHPE.WeightedPct)
		}
	}
	return out
}

// WeightedVsRR extracts the per-pair weighted improvements over RR,
// excluding degraded pairs.
func (s *SweepResult) WeightedVsRR() []float64 {
	out := make([]float64, 0, len(s.Outcomes))
	for i := range s.Outcomes {
		if !s.Outcomes[i].Failed {
			out = append(out, s.Outcomes[i].VsRR.WeightedPct)
		}
	}
	return out
}

// sortedByWeighted returns completed-outcome indexes ascending by the
// chosen weighted improvement; degraded pairs are excluded.
func (s *SweepResult) sortedByWeighted(vsRR bool) []int {
	idx := make([]int, 0, len(s.Outcomes))
	for i := range s.Outcomes {
		if !s.Outcomes[i].Failed {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := s.Outcomes[idx[a]].VsHPE.WeightedPct, s.Outcomes[idx[b]].VsHPE.WeightedPct
		if vsRR {
			va, vb = s.Outcomes[idx[a]].VsRR.WeightedPct, s.Outcomes[idx[b]].VsRR.WeightedPct
		}
		return va < vb
	})
	return idx
}
