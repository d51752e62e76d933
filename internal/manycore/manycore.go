// Package manycore generalizes the paper's dual-core system to N
// asymmetric cores and M threads (§VIII: "The methodology described
// here for an INT and FP cores can be followed for other types of
// asymmetric cores"; §II criticizes sampling-based schedulers as "not
// scalable to an AMP with many different cores").
//
// The package reuses the core model, power model and workloads of the
// dual-core reproduction; only the assignment machinery generalizes.
// Cores are grouped into pools (flavors: INT vs FP, big vs small) and
// threads carry affinity masks constraining which pools they may use.
// A scheduler implementing the unified amp.MoveScheduler interface
// observes the system through amp.View and returns batches of
// amp.Move relocations; the system applies each batch with the usual
// squash-and-stall reconfiguration cost, charged per affected core —
// unaffected cores keep executing, which is what makes fine-grained
// scheduling affordable at hundreds of cores.
//
// With M > N the machine time-shares: threads not bound to any core
// are parked (amp.ParkCore) — they keep their architectural state but
// commit nothing and draw no power until a later move places them.
package manycore

import (
	"context"
	"fmt"
	"math"

	"ampsched/internal/amp"
	"ampsched/internal/cache"
	"ampsched/internal/cpu"
	"ampsched/internal/power"
	"ampsched/internal/workload"
)

// MaxPools bounds pool indexes: affinity masks are 64-bit.
const MaxPools = 64

// CoreSpec describes one core of the machine.
type CoreSpec struct {
	// Config is the core's microarchitecture and power model.
	Config *cpu.Config
	// Pool is the flavor group the core belongs to (bit Pool of a
	// thread's affinity mask gates placement). Must be in [0, MaxPools).
	Pool int
}

// ThreadSpec describes one software thread.
type ThreadSpec struct {
	Bench *workload.Benchmark
	Seed  uint64
	// Affinity is the pool bit mask: bit p set means the thread may
	// run on cores of pool p. Zero means unconstrained (amp.AllPools).
	Affinity uint64
}

// Config holds system-level knobs.
type Config struct {
	// ReassignOverheadCycles freezes each core affected by a move
	// batch while the change is applied (pipeline squash + state
	// transfer). 0 means amp.DefaultSwapOverheadCycles.
	ReassignOverheadCycles uint64
	// WatchdogCycles is the progress-check period: a run that commits
	// nothing for this long aborts with a *amp.WedgedError. 0 means
	// amp.DefaultWatchdogCycles.
	WatchdogCycles uint64
	// CycleBudget bounds one run call's total cycles (0 = unlimited).
	CycleBudget uint64
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.ReassignOverheadCycles == 0 {
		c.ReassignOverheadCycles = amp.DefaultSwapOverheadCycles
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = amp.DefaultWatchdogCycles
	}
	return c
}

// System is an N-core, M-thread asymmetric multicore.
type System struct {
	cores    []cpu.Engine
	models   []*power.Model
	pools    []int
	threads  []*amp.Thread
	affinity []uint64
	binding  []int // binding[core] = thread, -1 when idle
	coreOf   []int // coreOf[thread] = core, amp.ParkCore when parked
	sched    amp.MoveScheduler
	cfg      Config

	// engineFactory builds the engines (WithEngine); nil means
	// cpu.DetailedFactory.
	engineFactory cpu.EngineFactory
	tel           *telemetryHook

	cycle        uint64 //ampvet:unit cycles
	stride       uint64
	reassigns    uint64 // applied move batches
	moves        uint64 // individual relocations applied
	invalid      uint64 // malformed batches ignored
	lastReassign uint64
	stallUntil   []uint64 // per-core frozen-window end

	lastAct   []cpu.Activity
	lastCache []power.CacheStats

	// Scratch state for applyMoves: epoch-stamped marks avoid O(N+M)
	// clears per batch, so batch validation is O(len(batch)).
	markEpoch  uint64
	threadMark []uint64
	coreMark   []uint64
	batch      []amp.Move
	touched    []int
}

// New builds an N-core, M-thread system. Initial placement is greedy
// and deterministic: thread i binds to the lowest-indexed free core
// whose pool its affinity mask allows; threads left over start parked.
// sched may be nil (the initial assignment is kept). Zero-valued
// Config knobs take their documented defaults. The functional options
// WithEngine and WithTelemetry select the fidelity and attach metrics.
func New(cores []CoreSpec, threads []ThreadSpec, sched amp.MoveScheduler, cfg Config, opts ...Option) (*System, error) {
	n, m := len(cores), len(threads)
	if n < 1 {
		return nil, fmt.Errorf("manycore: need at least 1 core, got %d", n)
	}
	if m < 1 {
		return nil, fmt.Errorf("manycore: need at least 1 thread, got %d", m)
	}
	cfg = cfg.withDefaults()
	s := &System{
		cores:      make([]cpu.Engine, n),
		models:     make([]*power.Model, n),
		pools:      make([]int, n),
		threads:    make([]*amp.Thread, m),
		affinity:   make([]uint64, m),
		binding:    make([]int, n),
		coreOf:     make([]int, m),
		sched:      sched,
		cfg:        cfg,
		stallUntil: make([]uint64, n),
		lastAct:    make([]cpu.Activity, n),
		lastCache:  make([]power.CacheStats, n),
		threadMark: make([]uint64, m),
		coreMark:   make([]uint64, n),
	}
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
	for c, spec := range cores {
		if spec.Config == nil {
			return nil, fmt.Errorf("manycore: core %d has nil Config", c)
		}
		if spec.Pool < 0 || spec.Pool >= MaxPools {
			return nil, fmt.Errorf("manycore: core %d pool %d outside [0,%d)", c, spec.Pool, MaxPools)
		}
		eng, err := factory(spec.Config)
		if err != nil {
			return nil, fmt.Errorf("manycore: engine for core %d: %w", c, err)
		}
		s.cores[c] = eng
		if st := eng.Stride(); st > s.stride {
			s.stride = st
		}
		s.models[c] = power.NewModel(spec.Config)
		s.pools[c] = spec.Pool
		s.binding[c] = -1
	}
	for t, spec := range threads {
		if spec.Bench == nil {
			return nil, fmt.Errorf("manycore: thread %d has nil Bench", t)
		}
		aff := spec.Affinity
		if aff == 0 {
			aff = amp.AllPools
		}
		s.affinity[t] = aff
		// Spread each thread's address space far apart.
		s.threads[t] = amp.NewThread(t, spec.Bench, spec.Seed, uint64(t)<<41)
		s.coreOf[t] = amp.ParkCore
	}
	for t := 0; t < m; t++ {
		for c := 0; c < n; c++ {
			if s.binding[c] < 0 && s.affinity[t]&(1<<uint(s.pools[c])) != 0 {
				s.bind(c, t)
				break
			}
		}
	}
	if sched != nil {
		sched.Reset(s)
	}
	return s, nil
}

// bind attaches thread t to core c (which must be free).
func (s *System) bind(c, t int) {
	s.binding[c] = t
	s.coreOf[t] = c
	s.cores[c].Bind(s.threads[t].Gen, &s.threads[t].Arch)
}

// --- amp.View -------------------------------------------------------

// NumCores implements amp.View.
func (s *System) NumCores() int { return len(s.cores) }

// NumThreads implements amp.View.
func (s *System) NumThreads() int { return len(s.threads) }

// Cycle implements amp.View.
func (s *System) Cycle() uint64 { return s.cycle }

// ThreadOnCore implements amp.View (-1 when the core is idle).
func (s *System) ThreadOnCore(core int) int { return s.binding[core] }

// CoreOfThread implements amp.View (amp.ParkCore when parked).
func (s *System) CoreOfThread(thread int) int { return s.coreOf[thread] }

// Arch implements amp.View.
func (s *System) Arch(thread int) *cpu.ThreadArch { return &s.threads[thread].Arch }

// ThreadEnergyNJ implements amp.View.
func (s *System) ThreadEnergyNJ(thread int) float64 {
	if c := s.coreOf[thread]; c >= 0 {
		s.flushCoreEnergy(c)
	}
	return s.threads[thread].EnergyNJ
}

// LastSwapCycle implements amp.View: the cycle the last move batch's
// stall window ended (0 if none).
func (s *System) LastSwapCycle() uint64 { return s.lastReassign }

// SwapFailures implements amp.View: no move batch is ever dropped.
func (s *System) SwapFailures() uint64 { return 0 }

// CoreConfig implements amp.View.
func (s *System) CoreConfig(core int) *cpu.Config { return s.cores[core].Config() }

// L2Stats implements amp.View.
func (s *System) L2Stats(core int) cache.Stats { return s.cores[core].Stats().L2 }

// FreqGHz implements amp.View.
//
//ampvet:unit cycles_per_second
func (s *System) FreqGHz() float64 { return s.cores[0].Config().FreqGHz }

// AffinityMask implements amp.View.
func (s *System) AffinityMask(thread int) uint64 { return s.affinity[thread] }

// CorePool implements amp.View.
func (s *System) CorePool(core int) int { return s.pools[core] }

// --------------------------------------------------------------------

// Reassigns returns the number of move batches applied.
func (s *System) Reassigns() uint64 { return s.reassigns }

// Moves returns the number of individual thread relocations applied.
func (s *System) Moves() uint64 { return s.moves }

// InvalidBatches returns the number of malformed move batches ignored.
func (s *System) InvalidBatches() uint64 { return s.invalid }

// Core exposes a core for tests. It returns nil when the system runs
// at a non-detailed fidelity; use Engine for the generic handle.
func (s *System) Core(i int) *cpu.Core {
	c, _ := s.cores[i].(*cpu.Core)
	return c
}

// Engine exposes core i's simulation engine.
func (s *System) Engine(i int) cpu.Engine { return s.cores[i] }

// Thread exposes a thread.
func (s *System) Thread(i int) *amp.Thread { return s.threads[i] }

// flushCoreEnergy attributes core c's un-attributed energy to its
// current occupant. Idle cores are power-gated: they accumulate no
// activity, so there is nothing to attribute.
func (s *System) flushCoreEnergy(c int) {
	t := s.binding[c]
	if t < 0 {
		return
	}
	st := s.cores[c].Stats()
	act := st.Act
	cs := power.CacheStats{L1I: st.L1I, L1D: st.L1D, L2: st.L2}
	e := s.models[c].EnergyNJ(act.Sub(s.lastAct[c]), cs.Sub(s.lastCache[c]))
	s.threads[t].EnergyNJ += e
	s.lastAct[c] = act
	s.lastCache[c] = cs
}

func (s *System) flushEnergy() {
	for c := range s.cores {
		s.flushCoreEnergy(c)
	}
}

// nextEpoch advances the scratch-mark epoch.
func (s *System) nextEpoch() uint64 {
	s.markEpoch++
	return s.markEpoch
}

// applyMoves validates and applies one scheduler move batch. A batch
// is rejected whole — counted in InvalidBatches, nothing applied — if
// any move names an out-of-range thread or core, relocates the same
// thread twice, targets the same core twice, or violates the thread's
// affinity mask. No-op moves (thread already where the move puts it)
// are dropped; a batch reduced to nothing costs nothing. The occupant
// of a targeted core that is not itself relocated by the batch is
// implicitly parked. Each affected core — move sources and targets —
// freezes for the configured overhead; untouched cores keep running.
//
//ampvet:hotpath
func (s *System) applyMoves(mv []amp.Move) bool {
	n, m := len(s.cores), len(s.threads)
	epoch := s.nextEpoch()
	s.batch = s.batch[:0]
	for i := range mv {
		mov := mv[i]
		if mov.Thread < 0 || mov.Thread >= m {
			return s.rejectBatch()
		}
		if mov.Core != amp.ParkCore && (mov.Core < 0 || mov.Core >= n) {
			return s.rejectBatch()
		}
		if s.threadMark[mov.Thread] == epoch {
			return s.rejectBatch()
		}
		s.threadMark[mov.Thread] = epoch
		if mov.Core >= 0 {
			if s.coreMark[mov.Core] == epoch {
				return s.rejectBatch()
			}
			s.coreMark[mov.Core] = epoch
			if s.affinity[mov.Thread]&(1<<uint(s.pools[mov.Core])) == 0 {
				return s.rejectBatch()
			}
		}
		if s.coreOf[mov.Thread] == mov.Core {
			continue // no-op
		}
		//ampvet:allow hotpathalloc reused scratch; capacity stabilizes after the first batch
		s.batch = append(s.batch, mov)
	}
	if len(s.batch) == 0 {
		return false
	}

	// Affected cores: every move source and target, deduplicated with
	// a fresh mark epoch.
	epoch = s.nextEpoch()
	s.touched = s.touched[:0]
	for i := range s.batch {
		mov := s.batch[i]
		if c := s.coreOf[mov.Thread]; c >= 0 && s.coreMark[c] != epoch {
			s.coreMark[c] = epoch
			//ampvet:allow hotpathalloc reused scratch; capacity stabilizes after the first batch
			s.touched = append(s.touched, c)
		}
		if c := mov.Core; c >= 0 && s.coreMark[c] != epoch {
			s.coreMark[c] = epoch
			//ampvet:allow hotpathalloc reused scratch; capacity stabilizes after the first batch
			s.touched = append(s.touched, c)
		}
	}

	// Attribute energy under the old binding, then detach every
	// affected core.
	for _, c := range s.touched {
		s.flushCoreEnergy(c)
		if s.binding[c] >= 0 {
			s.cores[c].Unbind()
		}
	}

	// Pass 1: vacate the sources of every relocated thread. After this
	// pass, any thread still bound to a targeted core was not moved by
	// the batch — it is implicitly parked by pass 2.
	for i := range s.batch {
		t := s.batch[i].Thread
		if c := s.coreOf[t]; c >= 0 {
			s.binding[c] = -1
		}
		s.coreOf[t] = amp.ParkCore
	}
	// Pass 2: place.
	for i := range s.batch {
		mov := s.batch[i]
		if mov.Core < 0 {
			continue // explicit park, already done in pass 1
		}
		if u := s.binding[mov.Core]; u >= 0 {
			s.coreOf[u] = amp.ParkCore // implicit park
		}
		s.binding[mov.Core] = mov.Thread
		s.coreOf[mov.Thread] = mov.Core
	}
	for _, c := range s.touched {
		if t := s.binding[c]; t >= 0 {
			s.cores[c].Bind(s.threads[t].Gen, &s.threads[t].Arch)
		}
	}

	// The batch lands at the end of cycle s.cycle (which already
	// executed), so each affected core's frozen window is
	// [cycle+1, cycle+overhead]; like amp, reassignments are dated from
	// completion so interval-based rules measure execution time.
	until := s.cycle + 1 + s.cfg.ReassignOverheadCycles
	for _, c := range s.touched {
		s.stallUntil[c] = until
	}
	s.lastReassign = until
	s.reassigns++
	s.moves += uint64(len(s.batch))
	s.tel.reassign(len(s.batch))
	return true
}

// rejectBatch counts one malformed batch and applies nothing.
func (s *System) rejectBatch() bool {
	s.invalid++
	s.tel.invalidInc()
	return false
}

// ThreadResult mirrors amp.ThreadResult for M threads.
type ThreadResult struct {
	Name       string
	Committed  uint64  //ampvet:unit instructions
	EnergyNJ   float64 //ampvet:unit nanojoules
	IPC        float64 //ampvet:unit ipc
	Watts      float64 //ampvet:unit watts
	IPCPerWatt float64 //ampvet:unit ipc_per_watt
}

// Result summarizes a completed run.
type Result struct {
	Scheduler string
	Cycles    uint64 //ampvet:unit cycles
	// Reassigns counts applied move batches; Moves counts the
	// individual relocations inside them.
	Reassigns uint64
	Moves     uint64
	// InvalidBatches counts malformed batches the system ignored.
	InvalidBatches uint64
	Threads        []ThreadResult
}

// GeomeanIPCW returns the geometric mean of per-thread IPC/Watt. It
// is 0 if any thread has non-positive IPC/Watt, which makes it
// unusable for time-shared runs where some threads never got a core;
// those use WeightedIPCW.
func (r *Result) GeomeanIPCW() float64 {
	prod := 1.0
	for _, t := range r.Threads {
		if t.IPCPerWatt <= 0 {
			return 0
		}
		prod *= t.IPCPerWatt
	}
	// n-th root.
	n := float64(len(r.Threads))
	return math.Pow(prod, 1/n)
}

// WeightedIPCW returns system throughput per watt: total committed
// instructions per cycle divided by total average power. Unlike the
// geomean it is well-defined when some threads were parked for the
// whole run.
func (r *Result) WeightedIPCW() float64 {
	var ipc, watts float64
	for _, t := range r.Threads {
		ipc += t.IPC
		watts += t.Watts
	}
	if watts <= 0 {
		return 0
	}
	return ipc / watts
}

// Run advances until any thread commits limit instructions; see
// RunContext.
//
//ampvet:allow ctxcheck Run is the documented context-free variant of RunContext; Background is its contract
func (s *System) Run(limit uint64) (Result, error) {
	return s.RunContext(context.Background(), limit)
}

// MustRun is Run for callers that treat a wedged system as a bug.
func (s *System) MustRun(limit uint64) Result {
	res, err := s.Run(limit)
	if err != nil {
		panic(err)
	}
	return res
}

// RunContext advances until any thread commits limit instructions.
// When no thread makes commit progress for a full watchdog window, or
// the cycle budget is exhausted, the run aborts with the state so far
// plus a *amp.WedgedError (match with errors.Is(err, amp.ErrWedged)).
// Canceling ctx stops the run at the next check point with the
// partial Result and ctx.Err().
func (s *System) RunContext(ctx context.Context, limit uint64) (Result, error) {
	return s.run(ctx, limit, 0)
}

// RunCycles advances the system for a fixed horizon of cycles; see
// RunCyclesContext.
//
//ampvet:allow ctxcheck RunCycles is the documented context-free variant of RunCyclesContext; Background is its contract
func (s *System) RunCycles(cycles uint64) (Result, error) {
	return s.RunCyclesContext(context.Background(), cycles)
}

// RunCyclesContext advances the system for a fixed horizon of cycles
// — the natural stopping rule for time-shared N×M runs, where
// "until any thread finishes" would reward parking everything but one
// thread. Watchdog, budget and cancellation behave as in RunContext.
func (s *System) RunCyclesContext(ctx context.Context, cycles uint64) (Result, error) {
	return s.run(ctx, 0, s.cycle+cycles)
}

// run is the shared loop: limit > 0 stops when any thread commits
// limit instructions; horizon > 0 stops at that absolute cycle.
//
//ampvet:hotpath
func (s *System) run(ctx context.Context, limit, horizon uint64) (Result, error) {
	startCycle := s.cycle
	watchCycle := s.cycle
	watchLast := s.totalCommitted()
	// The context is polled as in amp.RunContext: after the first
	// window that ends at or past each multiple of amp.CtxPollWindows
	// strides.
	done := ctx.Done()
	pollAt := uint64(math.MaxUint64)
	if done != nil {
		pollAt = amp.NextCtxPoll(s.cycle, s.stride)
	}
	for {
		if limit > 0 && s.anyCommitted(limit) {
			break
		}
		if horizon > 0 && s.cycle >= horizon {
			break
		}
		// Stride loop as in amp.System: detailed engines run with
		// n == 1, analytic engines batch whole windows. Cores share no
		// architectural state, so running them window-sequentially is
		// equivalent to cycle-interleaving. Idle cores are power-gated
		// and skipped entirely; a core inside a reassignment's frozen
		// window burns stall (leakage) cycles instead of executing.
		n := s.stride
		for c := range s.cores {
			if s.binding[c] < 0 {
				continue
			}
			if su := s.stallUntil[c]; s.cycle < su {
				if k := su - s.cycle; k < n {
					s.cores[c].StallCycles(k)
					s.cores[c].Run(s.cycle+k, n-k, 1)
				} else {
					s.cores[c].StallCycles(n)
				}
			} else {
				s.cores[c].Run(s.cycle, n, 1)
			}
		}
		if s.sched != nil {
			if mv := s.sched.Tick(s); len(mv) != 0 {
				s.applyMoves(mv)
			}
		}
		s.cycle += n

		if s.cycle >= pollAt {
			pollAt = amp.NextCtxPoll(s.cycle, s.stride)
			select {
			case <-done:
				return s.finish(ctx.Err())
			default:
			}
		}
		if s.cfg.CycleBudget > 0 && s.cycle-startCycle >= s.cfg.CycleBudget {
			werr := &amp.WedgedError{
				Cycle: s.cycle, Window: s.cfg.CycleBudget,
				Reason: "cycle budget exhausted", Detail: s.stateDump(),
			}
			return s.finish(werr)
		}
		if s.cycle-watchCycle >= s.cfg.WatchdogCycles {
			total := s.totalCommitted()
			if total == watchLast {
				werr := &amp.WedgedError{
					Cycle: s.cycle, Window: s.cfg.WatchdogCycles,
					Reason: "no commit progress", Detail: s.stateDump(),
				}
				return s.finish(werr)
			}
			watchLast = total
			watchCycle = s.cycle
		}
	}
	return s.finish(nil)
}

// finish snapshots the run's result and publishes the run-end gauges.
func (s *System) finish(err error) (Result, error) {
	res := s.result()
	s.tel.flushRunEnd(s)
	return res, err
}

// anyCommitted reports whether any thread reached the commit limit.
//
//ampvet:hotpath
func (s *System) anyCommitted(limit uint64) bool {
	for _, t := range s.threads {
		if t.Arch.Committed >= limit {
			return true
		}
	}
	return false
}

// totalCommitted sums commits across threads (watchdog progress).
//
//ampvet:hotpath
func (s *System) totalCommitted() uint64 {
	var total uint64
	for _, t := range s.threads {
		total += t.Arch.Committed
	}
	return total
}

// stateDump renders the wedge-relevant state for WedgedError.Detail.
func (s *System) stateDump() string {
	bound := 0
	for _, t := range s.binding {
		if t >= 0 {
			bound++
		}
	}
	return fmt.Sprintf("manycore: %d cores (%d bound), %d threads, total committed %d",
		len(s.cores), bound, len(s.threads), s.totalCommitted())
}

// result snapshots the run's outcome at the current cycle.
func (s *System) result() Result {
	s.flushEnergy()
	res := Result{
		Cycles: s.cycle, Reassigns: s.reassigns, Moves: s.moves,
		InvalidBatches: s.invalid, Scheduler: "static",
	}
	if s.sched != nil {
		res.Scheduler = s.sched.Name()
	}
	freq := s.FreqGHz()
	seconds := float64(s.cycle) / (freq * 1e9)
	for _, t := range s.threads {
		tr := ThreadResult{Name: t.Name, Committed: t.Arch.Committed, EnergyNJ: t.EnergyNJ}
		if s.cycle > 0 {
			tr.IPC = float64(t.Arch.Committed) / float64(s.cycle)
		}
		if seconds > 0 {
			tr.Watts = t.EnergyNJ * 1e-9 / seconds
		}
		if tr.Watts > 0 {
			tr.IPCPerWatt = tr.IPC / tr.Watts
		}
		res.Threads = append(res.Threads, tr)
	}
	return res
}

var _ amp.View = (*System)(nil)
