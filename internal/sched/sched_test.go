package sched

import (
	"strings"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cache"
	"ampsched/internal/cpu"
	"ampsched/internal/isa"
	"ampsched/internal/monitor"
)

// fakeView is a scriptable amp.View for driving schedulers directly.
type fakeView struct {
	cycle    uint64
	binding  [2]int // binding[core] = thread
	arch     [2]cpu.ThreadArch
	energy   [2]float64
	lastSwap uint64
	failures uint64
	cfgs     [2]*cpu.Config
	l2       [2]cache.Stats
}

func newFakeView() *fakeView {
	return &fakeView{
		binding: [2]int{0, 1},
		cfgs:    [2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
	}
}

func (f *fakeView) Cycle() uint64             { return f.cycle }
func (f *fakeView) ThreadOnCore(core int) int { return f.binding[core] }
func (f *fakeView) CoreOfThread(thread int) int {
	if f.binding[0] == thread {
		return 0
	}
	return 1
}
func (f *fakeView) Arch(thread int) *cpu.ThreadArch   { return &f.arch[thread] }
func (f *fakeView) ThreadEnergyNJ(thread int) float64 { return f.energy[thread] }
func (f *fakeView) LastSwapCycle() uint64             { return f.lastSwap }
func (f *fakeView) SwapFailures() uint64              { return f.failures }
func (f *fakeView) CoreConfig(core int) *cpu.Config   { return f.cfgs[core] }
func (f *fakeView) L2Stats(core int) cache.Stats      { return f.l2[core] }
func (f *fakeView) FreqGHz() float64                  { return 2.0 }
func (f *fakeView) NumCores() int                     { return 2 }
func (f *fakeView) NumThreads() int                   { return 2 }
func (f *fakeView) AffinityMask(thread int) uint64    { return amp.AllPools }
func (f *fakeView) CorePool(core int) int             { return core }

// commit advances a thread's counters with the given composition
// percentages over n instructions.
func (f *fakeView) commit(thread int, n uint64, intPct, fpPct float64) {
	a := &f.arch[thread]
	ni := uint64(float64(n) * intPct / 100)
	nf := uint64(float64(n) * fpPct / 100)
	a.CommittedByClass[isa.IntALU] += ni
	a.CommittedByClass[isa.FPALU] += nf
	a.CommittedByClass[isa.Load] += n - ni - nf
	a.Committed += n
}

func (f *fakeView) swapBinding() {
	f.binding[0], f.binding[1] = f.binding[1], f.binding[0]
	f.lastSwap = f.cycle
}

func TestCoreIndexes(t *testing.T) {
	v := newFakeView()
	i, fp := coreIndexes(v)
	if i != 0 || fp != 1 {
		t.Fatalf("coreIndexes = %d, %d", i, fp)
	}
	// Swapped placement is detected by name.
	v.cfgs[0], v.cfgs[1] = v.cfgs[1], v.cfgs[0]
	i, fp = coreIndexes(v)
	if i != 1 || fp != 0 {
		t.Fatalf("coreIndexes after swap = %d, %d", i, fp)
	}
}

func TestStaticNeverSwaps(t *testing.T) {
	v := newFakeView()
	s := Static{}
	s.Reset(v)
	for c := uint64(0); c < 10000; c++ {
		v.cycle = c
		if len(s.Tick(v)) != 0 {
			t.Fatal("static swapped")
		}
	}
}

func TestProposedConfigValidation(t *testing.T) {
	good := DefaultProposedConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*ProposedConfig){
		func(c *ProposedConfig) { c.WindowSize = 0 },
		func(c *ProposedConfig) { c.HistoryDepth = 0 },
		func(c *ProposedConfig) { c.ForceInterval = 0 },
		func(c *ProposedConfig) { c.IntHigh = -1 },
		func(c *ProposedConfig) { c.FPLow = 101 },
	}
	for i, mutate := range bads {
		c := DefaultProposedConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// ForceInterval may be zero when forced swaps are disabled.
	c := DefaultProposedConfig()
	c.ForceInterval = 0
	c.DisableForcedSwap = true
	if err := c.Validate(); err != nil {
		t.Errorf("disabled forced swap with zero interval rejected: %v", err)
	}
}

func TestDefaultProposedMatchesPaper(t *testing.T) {
	c := DefaultProposedConfig()
	if c.WindowSize != 1000 || c.HistoryDepth != 5 {
		t.Fatalf("window/history: %d/%d", c.WindowSize, c.HistoryDepth)
	}
	if c.IntHigh != 55 || c.IntLow != 35 || c.FPHigh != 20 || c.FPLow != 7 {
		t.Fatalf("thresholds: %+v", c)
	}
}

// driveProposed feeds w windows of the given compositions (thread 0 on
// the INT core, thread 1 on the FP core unless v says otherwise) and
// returns true if the scheduler requested a swap at any point.
func driveProposed(p *Proposed, v *fakeView, windows int,
	t0Int, t0FP, t1Int, t1FP float64) bool {
	for i := 0; i < windows; i++ {
		v.cycle += 1000
		v.commit(0, 1000, t0Int, t0FP)
		v.commit(1, 1000, t1Int, t1FP)
		if len(p.Tick(v)) != 0 {
			return true
		}
	}
	return false
}

func TestProposedSwapRuleFPDirection(t *testing.T) {
	// Thread on INT core turns FP-heavy (%FP>=20) while thread on FP
	// core has almost no FP (%FP<=7): rule 2(ii) fires after the
	// 5-window majority.
	v := newFakeView()
	p := NewProposed(DefaultProposedConfig())
	p.Reset(v)
	if !driveProposed(p, v, 8, 10, 60, 70, 0) {
		t.Fatal("rule 2(ii) did not fire")
	}
	st := p.SchedStats()
	if st.SwapRequests != 1 {
		t.Fatalf("swap requests = %d", st.SwapRequests)
	}
}

func TestProposedSwapRuleIntDirection(t *testing.T) {
	// Thread on FP core is INT-heavy (%INT>=55) while thread on INT
	// core is not using it (%INT<=35): rule 2(i).
	v := newFakeView()
	p := NewProposed(DefaultProposedConfig())
	p.Reset(v)
	if !driveProposed(p, v, 8, 20, 50, 70, 0) {
		t.Fatal("rule 2(i) did not fire")
	}
}

func TestProposedNoSwapWhenWellPlaced(t *testing.T) {
	// INT-heavy thread on INT core, FP-heavy on FP core: no rule
	// fires, ever.
	v := newFakeView()
	cfg := DefaultProposedConfig()
	cfg.DisableForcedSwap = true
	p := NewProposed(cfg)
	p.Reset(v)
	if driveProposed(p, v, 50, 70, 0, 10, 60) {
		t.Fatal("spurious swap for well-placed threads")
	}
}

func TestProposedNeedsMajority(t *testing.T) {
	// A single qualifying window among many non-qualifying ones must
	// not trigger a swap (history depth 5, strict majority).
	v := newFakeView()
	cfg := DefaultProposedConfig()
	cfg.DisableForcedSwap = true
	p := NewProposed(cfg)
	p.Reset(v)
	// Two qualifying windows...
	if driveProposed(p, v, 2, 10, 60, 70, 0) {
		t.Fatal("swap before history filled")
	}
	// ...then non-qualifying ones.
	if driveProposed(p, v, 10, 70, 0, 10, 60) {
		t.Fatal("swap with stale minority votes")
	}
}

func TestProposedForcedFairnessSwap(t *testing.T) {
	// Both threads FP-heavy: rule 2 cannot fire, but after the force
	// interval with no swap, rule 3 swaps for fairness.
	v := newFakeView()
	cfg := DefaultProposedConfig()
	cfg.ForceInterval = 50_000
	p := NewProposed(cfg)
	p.Reset(v)
	swapped := driveProposed(p, v, 60, 5, 60, 5, 60)
	if !swapped {
		t.Fatal("forced fairness swap did not fire")
	}
	if v.cycle < 50_000 {
		t.Fatal("forced swap fired before the interval")
	}
}

func TestProposedForcedSwapDisabled(t *testing.T) {
	v := newFakeView()
	cfg := DefaultProposedConfig()
	cfg.ForceInterval = 50_000
	cfg.DisableForcedSwap = true
	p := NewProposed(cfg)
	p.Reset(v)
	if driveProposed(p, v, 100, 5, 60, 5, 60) {
		t.Fatal("forced swap fired despite being disabled")
	}
}

func TestProposedTracksBindingAfterSwap(t *testing.T) {
	// After a swap, the rules must be evaluated against the new
	// binding (the monitor follows the thread, the rule follows the
	// core).
	v := newFakeView()
	cfg := DefaultProposedConfig()
	cfg.DisableForcedSwap = true
	p := NewProposed(cfg)
	p.Reset(v)
	// Misplaced: t0 (INT core) is FP-heavy; t1 (FP core) is INT-only.
	if !driveProposed(p, v, 8, 10, 60, 70, 0) {
		t.Fatal("initial swap did not fire")
	}
	v.swapBinding()
	// Now both are well placed; no further swap should fire even
	// after many windows.
	if driveProposed(p, v, 30, 10, 60, 70, 0) {
		t.Fatal("swapped again despite correct placement")
	}
}

func TestProposedDecisionPointsCounted(t *testing.T) {
	v := newFakeView()
	cfg := DefaultProposedConfig()
	cfg.DisableForcedSwap = true
	p := NewProposed(cfg)
	p.Reset(v)
	driveProposed(p, v, 20, 70, 0, 10, 60)
	st := p.SchedStats()
	if st.DecisionPoints < 15 {
		t.Fatalf("decision points = %d, want ~20", st.DecisionPoints)
	}
}

// fixedEstimator returns a constant INT/FP ratio.
type fixedEstimator struct{ r float64 }

func (f fixedEstimator) Name() string                                 { return "fixed" }
func (f fixedEstimator) RatioIntOverFP(intPct, fpPct float64) float64 { return f.r }

// biasedEstimator returns >1 for INT-heavy compositions and <1 for
// FP-heavy ones — a caricature of the real profile.
type biasedEstimator struct{}

func (biasedEstimator) Name() string { return "biased" }
func (biasedEstimator) RatioIntOverFP(intPct, fpPct float64) float64 {
	return 1 + (intPct-fpPct)/100
}

func TestHPEConfigValidation(t *testing.T) {
	good := DefaultHPEConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultHPEConfig()
	c.Interval = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero interval accepted")
	}
	c = DefaultHPEConfig()
	c.SpeedupThreshold = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestNewHPEPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil estimator accepted")
		}
	}()
	NewHPE(DefaultHPEConfig(), nil)
}

// driveHPE advances the fake view to the next HPE decision point with
// the given per-thread compositions and energies.
func driveHPE(h *HPE, v *fakeView, interval uint64, t0Int, t0FP, t1Int, t1FP float64) bool {
	target := v.cycle + interval
	for v.cycle < target {
		v.cycle += 1000
		v.commit(0, 500, t0Int, t0FP)
		v.commit(1, 500, t1Int, t1FP)
		v.energy[0] += 1000
		v.energy[1] += 1000
		if len(h.Tick(v)) != 0 {
			return true
		}
	}
	return false
}

func TestHPESwapsMisplacedThreads(t *testing.T) {
	// t0 (INT core) is FP-heavy, t1 (FP core) is INT-heavy: a biased
	// estimator predicts both improve by swapping.
	v := newFakeView()
	cfg := HPEConfig{Interval: 100_000, SpeedupThreshold: 1.05}
	h := NewHPE(cfg, biasedEstimator{})
	h.Reset(v)
	if !driveHPE(h, v, 200_000, 5, 70, 80, 0) {
		t.Fatal("HPE did not swap misplaced threads")
	}
	if h.SchedStats().SwapRequests == 0 {
		t.Fatal("swap not recorded")
	}
}

func TestHPEKeepsWellPlacedThreads(t *testing.T) {
	v := newFakeView()
	cfg := HPEConfig{Interval: 100_000, SpeedupThreshold: 1.05}
	h := NewHPE(cfg, biasedEstimator{})
	h.Reset(v)
	if driveHPE(h, v, 500_000, 80, 0, 5, 70) {
		t.Fatal("HPE swapped well-placed threads")
	}
	if h.SchedStats().DecisionPoints == 0 {
		t.Fatal("no decision points evaluated")
	}
}

func TestHPERespectsThreshold(t *testing.T) {
	// Ratio 1.0 estimator: estimated speedup of a swap is exactly 1,
	// below any threshold > 1 — never swap.
	v := newFakeView()
	h := NewHPE(HPEConfig{Interval: 50_000, SpeedupThreshold: 1.05}, fixedEstimator{r: 1})
	h.Reset(v)
	if driveHPE(h, v, 400_000, 50, 20, 50, 20) {
		t.Fatal("HPE swapped with no predicted benefit")
	}
}

func TestHPEDecidesOnlyAtInterval(t *testing.T) {
	v := newFakeView()
	h := NewHPE(HPEConfig{Interval: 100_000, SpeedupThreshold: 1.05}, biasedEstimator{})
	h.Reset(v)
	for v.cycle < 99_000 {
		v.cycle += 1000
		v.commit(0, 500, 5, 70)
		v.commit(1, 500, 80, 0)
		v.energy[0] += 1000
		v.energy[1] += 1000
		if len(h.Tick(v)) != 0 {
			t.Fatal("HPE decided before its interval")
		}
	}
}

func TestHPEName(t *testing.T) {
	h := NewHPE(DefaultHPEConfig(), fixedEstimator{r: 1})
	if h.Name() != "hpe-fixed" {
		t.Fatalf("name = %q", h.Name())
	}
	if h.Estimator().Name() != "fixed" {
		t.Fatal("estimator accessor wrong")
	}
}

func TestRoundRobinSwapsEveryInterval(t *testing.T) {
	v := newFakeView()
	r := NewRoundRobinInterval(10_000)
	r.Reset(v)
	swaps := 0
	for c := uint64(0); c < 100_000; c += 100 {
		v.cycle = c
		if len(r.Tick(v)) != 0 {
			swaps++
		}
	}
	if swaps < 9 || swaps > 10 {
		t.Fatalf("swaps = %d over 10 intervals", swaps)
	}
	st := r.SchedStats()
	if st.SwapRequests != uint64(swaps) || st.DecisionPoints != uint64(swaps) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRoundRobinMultiple(t *testing.T) {
	// The paper's two decision intervals: 1 and 2 context-switch periods.
	for _, k := range []uint64{1, 2} {
		if got := NewRoundRobinInterval(k * amp.ContextSwitchCycles).Interval(); got != k*amp.ContextSwitchCycles {
			t.Fatalf("%dx interval = %d, want %d", k, got, k*amp.ContextSwitchCycles)
		}
	}
}

func TestRoundRobinPanics(t *testing.T) {
	// Zero context-switch periods is rejected, and the panic names
	// the scheduler.
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "roundrobin") {
			t.Fatalf("0x interval: panic = %q, want a roundrobin panic", msg)
		}
	}()
	NewRoundRobinInterval(0 * amp.ContextSwitchCycles)
}

func TestRoundRobinIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval accepted")
		}
	}()
	NewRoundRobinInterval(0)
}

// failingView is a fakeView whose swap requests always fail: the
// caller bumps failures instead of swapping the binding.
func (f *fakeView) failSwap() { f.failures++ }

func TestProposedRetriesWithBackoffAfterSwapFailure(t *testing.T) {
	v := newFakeView()
	cfg := DefaultProposedConfig()
	cfg.DisableForcedSwap = true
	cfg.RetryBackoffCycles = 10_000
	p := NewProposed(cfg)
	p.Reset(v)

	// Misplaced pair: rule 2(i) fires after the 5-window majority.
	if !driveProposed(p, v, 8, 20, 50, 70, 0) {
		t.Fatal("initial swap request never fired")
	}
	v.failSwap() // the controller drops it

	// Within the backoff window the scheduler must not re-request,
	// even though the pair is still misplaced.
	requests := 0
	for i := 0; i < 9; i++ { // 9 windows * 1000 cycles < 10k backoff
		v.cycle += 1000
		v.commit(0, 1000, 20, 0)
		v.commit(1, 1000, 70, 0)
		if len(p.Tick(v)) != 0 {
			requests++
		}
	}
	if requests != 0 {
		t.Fatalf("%d re-requests inside the backoff window", requests)
	}

	// Once the backoff expires the request must come back (retry, not
	// abandonment).
	if !driveProposed(p, v, 20, 20, 50, 70, 0) {
		t.Fatal("no retry after backoff expired")
	}
	if st := p.SchedStats(); st.FailedRequests != 1 {
		t.Fatalf("FailedRequests = %d", st.FailedRequests)
	}
}

func TestProposedBackoffDoublesAndResetsOnSuccess(t *testing.T) {
	v := newFakeView()
	var r retryState
	r.reset(1000, 64_000, v)

	v.cycle = 10_000
	v.failSwap()
	r.observe(v)
	if !r.holdoff(10_500) || r.holdoff(11_000) {
		t.Fatalf("first backoff window wrong: until=%d", r.until)
	}
	v.cycle = 11_000
	v.failSwap()
	r.observe(v)
	if !r.holdoff(12_500) || r.holdoff(13_000) {
		t.Fatalf("second backoff did not double: until=%d", r.until)
	}
	// A successful swap clears the backoff entirely.
	v.cycle = 12_000
	v.swapBinding()
	r.observe(v)
	if r.holdoff(12_000) || r.backoff != 0 {
		t.Fatalf("backoff survived a successful swap: %+v", r)
	}
	if r.failed != 2 {
		t.Fatalf("failed = %d", r.failed)
	}
}

func TestRetryBackoffCaps(t *testing.T) {
	v := newFakeView()
	var r retryState
	r.reset(1000, 4000, v)
	for i := 0; i < 10; i++ {
		v.cycle += 100
		v.failSwap()
		r.observe(v)
	}
	if r.backoff > 4000 {
		t.Fatalf("backoff %d exceeds cap", r.backoff)
	}
}

func TestProposedObserverInjection(t *testing.T) {
	// A factory that drops every sample starves the scheduler: no
	// decision points, no swaps, but also no wedge or panic.
	v := newFakeView()
	cfg := DefaultProposedConfig()
	var built int
	p := NewProposed(cfg, WithObserverFactory(func(window uint64) monitor.Observer {
		built++
		return dropAll{window: window}
	}))
	p.Reset(v)
	if built != 2 {
		t.Fatalf("factory built %d observers", built)
	}
	if driveProposed(p, v, 20, 20, 50, 70, 0) {
		t.Fatal("swap requested with all samples dropped")
	}
	if st := p.SchedStats(); st.DecisionPoints != 0 {
		t.Fatalf("decision points %d despite total sample loss", st.DecisionPoints)
	}
}

// dropAll is a monitor.Observer that never delivers a sample.
type dropAll struct{ window uint64 }

func (d dropAll) Window() uint64                                 { return d.window }
func (d dropAll) Reset(*cpu.ThreadArch)                          {}
func (d dropAll) Observe(*cpu.ThreadArch) (monitor.Sample, bool) { return monitor.Sample{}, false }
func (d dropAll) Latest() (monitor.Sample, bool)                 { return monitor.Sample{}, false }
