// Benchmarks regenerating each table and figure of the paper at a
// reduced-but-faithful scale, plus ablation benches for the design
// choices called out in DESIGN.md §6 and microbenchmarks of the
// simulator substrate.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each figure bench reports its headline number through
// b.ReportMetric (e.g. pct_vs_hpe for Fig. 9), so `-bench` output
// doubles as a miniature EXPERIMENTS table.
package ampsched

import (
	"context"
	"io"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/experiments"
	"ampsched/internal/interval"
	"ampsched/internal/isa"
	"ampsched/internal/metrics"
	"ampsched/internal/profilegen"
	"ampsched/internal/sched"
	"ampsched/internal/stats"
	"ampsched/internal/telemetry"
	"ampsched/internal/workload"
)

// benchOptions are small enough for iterating benchmarks but large
// enough that every scheduler gets multiple decision points.
func benchOptions() experiments.Options {
	return experiments.Options{
		Pairs:             4,
		InstrLimit:        300_000,
		ContextSwitch:     80_000,
		SwapOverhead:      1000,
		ProfileInstrLimit: 300_000,
		RuleWindow:        1000,
		RulePairs:         10,
		SensitivityPairs:  2,
		Seed:              7,
	}
}

func newBenchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	r, err := experiments.NewRunner(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		e, err := experiments.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one bench per paper table/figure --------------------------------

// BenchmarkTableConfigs regenerates Tables I and II.
func BenchmarkTableConfigs(b *testing.B) { runExperiment(b, "tables") }

// BenchmarkFig1CoreAsymmetry regenerates Fig. 1 and reports the
// measured INT/FP IPC-per-watt ratio of the flagship workloads.
func BenchmarkFig1CoreAsymmetry(b *testing.B) {
	intCfg, fpCfg := cpu.IntCoreConfig(), cpu.FPCoreConfig()
	var last float64
	for i := 0; i < b.N; i++ {
		ri := amp.SoloRun(intCfg, workload.MustByName("intstress"), 7, 150_000, 0)
		rf := amp.SoloRun(fpCfg, workload.MustByName("intstress"), 7, 150_000, 0)
		last = ri.IPCPerWatt / rf.IPCPerWatt
	}
	b.ReportMetric(last, "intstress_ratio")
}

// BenchmarkFig3RatioMatrix regenerates the HPE ratio matrix.
func BenchmarkFig3RatioMatrix(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4Regression regenerates the regression surface.
func BenchmarkFig4Regression(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5RuleDerivation regenerates the §VI-A threshold
// derivation behind Fig. 5.
func BenchmarkFig5RuleDerivation(b *testing.B) { runExperiment(b, "rules") }

// BenchmarkFig6Sensitivity regenerates the window/history sweep.
func BenchmarkFig6Sensitivity(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7VsHPE regenerates the per-pair comparison against HPE
// and reports the mean weighted improvement.
func BenchmarkFig7VsHPE(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		sw, err := r.Sweep()
		if err != nil {
			b.Fatal(err)
		}
		mean = stats.Mean(sw.WeightedVsHPE())
	}
	b.ReportMetric(mean, "pct_vs_hpe")
}

// BenchmarkFig8VsRR regenerates the per-pair comparison against Round
// Robin and reports the mean weighted improvement.
func BenchmarkFig8VsRR(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r := newBenchRunner(b)
		sw, err := r.Sweep()
		if err != nil {
			b.Fatal(err)
		}
		mean = stats.Mean(sw.WeightedVsRR())
	}
	b.ReportMetric(mean, "pct_vs_rr")
}

// BenchmarkFig9Summary regenerates the worst/average/best summary.
func BenchmarkFig9Summary(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkOverheadSweep regenerates the §VI-C swap-overhead study.
func BenchmarkOverheadSweep(b *testing.B) { runExperiment(b, "overhead") }

// BenchmarkDecisionStats regenerates the §VI-D decision-point count.
func BenchmarkDecisionStats(b *testing.B) { runExperiment(b, "decisions") }

// BenchmarkRRIntervalAblation regenerates the §VII Round Robin
// interval comparison.
func BenchmarkRRIntervalAblation(b *testing.B) { runExperiment(b, "rrinterval") }

// BenchmarkExtensionGuard regenerates the §VII future-work study
// (IPC + LLC-miss-rate guard on the swapping rules).
func BenchmarkExtensionGuard(b *testing.B) { runExperiment(b, "extension") }

// BenchmarkMorphComparison regenerates the §III swap-only vs
// swap+morph comparison.
func BenchmarkMorphComparison(b *testing.B) { runExperiment(b, "morph") }

// BenchmarkBaselinePanorama regenerates the all-policies comparison
// against the best static placement.
func BenchmarkBaselinePanorama(b *testing.B) { runExperiment(b, "baselines") }

// BenchmarkPowerBreakdown regenerates the per-structure energy table.
func BenchmarkPowerBreakdown(b *testing.B) { runExperiment(b, "power") }

// BenchmarkManycoreGeneralization regenerates the §VIII quad-core
// comparison.
func BenchmarkManycoreGeneralization(b *testing.B) { runExperiment(b, "manycore") }

// BenchmarkPhaseDetection regenerates the phase-classification table.
func BenchmarkPhaseDetection(b *testing.B) { runExperiment(b, "phases") }

// BenchmarkClairvoyantComparison regenerates the clairvoyant-scheduler
// comparison.
func BenchmarkClairvoyantComparison(b *testing.B) { runExperiment(b, "oracle") }

// --- ablation benches (DESIGN.md §6) ---------------------------------

// BenchmarkAblationFairnessSwap compares the proposed scheme with and
// without the Fig. 5 step-3 forced fairness swap on a same-flavor
// pair, reporting the geometric-IPC/Watt delta (pct).
func BenchmarkAblationFairnessSwap(b *testing.B) {
	opt := benchOptions()
	r, err := experiments.NewRunner(opt)
	if err != nil {
		b.Fatal(err)
	}
	pair := experiments.Pair{
		A: workload.MustByName("bitcount"),
		B: workload.MustByName("sha"),
	}
	var delta float64
	for i := 0; i < b.N; i++ {
		with, err := r.RunPair(0, pair, r.ProposedFactory())
		if err != nil {
			b.Fatal(err)
		}
		without, err := r.RunPair(0, pair, func(opts ...sched.Option) amp.MoveScheduler {
			cfg := sched.DefaultProposedConfig()
			cfg.ForceInterval = opt.ContextSwitch
			cfg.DisableForcedSwap = true
			return sched.NewProposed(cfg, opts...)
		})
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := metrics.Compare(with, without)
		if err != nil {
			b.Fatal(err)
		}
		delta = cmp.GeoPct
	}
	b.ReportMetric(delta, "fairness_geo_pct")
}

// BenchmarkAblationHPEEstimator compares HPE driven by the binned
// matrix against HPE driven by the regression surface.
func BenchmarkAblationHPEEstimator(b *testing.B) {
	r := newBenchRunner(b)
	m, err := r.Matrix()
	if err != nil {
		b.Fatal(err)
	}
	s, err := r.Surface()
	if err != nil {
		b.Fatal(err)
	}
	pair := experiments.RandomPairs(1, 3)[0]
	var delta float64
	for i := 0; i < b.N; i++ {
		rm, err := r.RunPair(0, pair, r.HPEFactory(m))
		if err != nil {
			b.Fatal(err)
		}
		rs, err := r.RunPair(0, pair, r.HPEFactory(s))
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := metrics.Compare(rm, rs)
		if err != nil {
			b.Fatal(err)
		}
		delta = cmp.WeightedPct
	}
	b.ReportMetric(delta, "matrix_vs_regression_pct")
}

// BenchmarkAblationPrefetcher measures the substrate's L2 next-line
// prefetcher (off in the paper configuration) on a streaming FP
// workload, reporting the IPC gain in percent.
func BenchmarkAblationPrefetcher(b *testing.B) {
	run := func(prefetch bool) float64 {
		cfg := cpu.IntCoreConfig()
		cfg.Caches.NextLinePrefetch = prefetch
		res := amp.SoloRun(cfg, workload.MustByName("swim"), 7, 100_000, 0)
		return res.IPC
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		off := run(false)
		on := run(true)
		gain = 100 * (on/off - 1)
	}
	b.ReportMetric(gain, "prefetch_ipc_gain_pct")
}

// --- engine fidelity benches (BENCH_micro.json / make bench-check) ---

// benchFidelityPairs runs the Fig. 7-style pair sweep (every random
// pair under proposed, HPE and Round Robin) at the given fidelity.
// The detailed/interval pairing of these benches records the interval
// engine's speedup in BENCH_micro.json; profiling (always detailed) is
// shared and untimed, and one untimed warm-up sweep populates the
// interval calibration cache.
func benchFidelityPairs(b *testing.B, fidelity string) {
	opt := benchOptions()
	opt.Fidelity = fidelity
	r, err := experiments.NewRunner(opt)
	if err != nil {
		b.Fatal(err)
	}
	m, err := r.Matrix()
	if err != nil {
		b.Fatal(err)
	}
	pairs := experiments.RandomPairs(opt.Pairs, opt.Seed)
	proposed, hpe, rr := r.ProposedFactory(), r.HPEFactory(m), r.RRFactory(1)
	sweep := func() {
		for j, p := range pairs {
			if _, err := r.RunPair(j, p, proposed); err != nil {
				b.Fatal(err)
			}
			if _, err := r.RunPair(j, p, hpe); err != nil {
				b.Fatal(err)
			}
			if _, err := r.RunPair(j, p, rr); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkEnginePairSweepDetailed is the cycle-accurate reference for
// the fidelity sweep trio.
func BenchmarkEnginePairSweepDetailed(b *testing.B) { benchFidelityPairs(b, cpu.FidelityDetailed) }

// BenchmarkEnginePairSweepInterval must stay well over an order of
// magnitude under the Detailed sibling's ns/op.
func BenchmarkEnginePairSweepInterval(b *testing.B) { benchFidelityPairs(b, interval.FidelityInterval) }

// BenchmarkEnginePairSweepSampled exercises the two-tier engine's
// warm-up/fast-forward switching on the same sweep.
func BenchmarkEnginePairSweepSampled(b *testing.B) { benchFidelityPairs(b, interval.FidelitySampled) }

// benchSoloEngine isolates one engine's per-window hot loop on a
// single core running gcc (no scheduler, no second core).
func benchSoloEngine(b *testing.B, factory cpu.EngineFactory) {
	cfg := cpu.IntCoreConfig()
	bench := workload.MustByName("gcc")
	amp.SoloRunEngine(factory, cfg, bench, 7, 50_000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		amp.SoloRunEngine(factory, cfg, bench, 7, 300_000, 0)
	}
}

// BenchmarkEngineSoloDetailed measures the detailed pipeline loop.
func BenchmarkEngineSoloDetailed(b *testing.B) { benchSoloEngine(b, cpu.DetailedFactory) }

// BenchmarkEngineSoloInterval measures the analytic window loop.
func BenchmarkEngineSoloInterval(b *testing.B) { benchSoloEngine(b, interval.Factory()) }

// benchEstimator is a deterministic stand-in for the profiled HPE
// estimators (INT-heavy compositions favor the INT core), so the
// run-loop rows need no profiling pass.
type benchEstimator struct{}

func (benchEstimator) Name() string { return "composition" }

func (benchEstimator) RatioIntOverFP(intPct, fpPct float64) float64 {
	return (10 + intPct) / (10 + 3*fpPct)
}

// benchRunLoop times the dual-core run loop under one policy at the
// paper's 4 M-cycle quantum: one gcc+equake pair for 20 M
// instructions, after one untimed run that pays the pair's first-touch
// calibrations. ns/window is the CPU time per 128-cycle stride window.
func benchRunLoop(b *testing.B, factory cpu.EngineFactory, mk func(...sched.Option) amp.MoveScheduler) {
	benchRunLoopIn(b, context.Background(), nil, factory, mk)
}

// benchRunLoopIn is benchRunLoop with each run under ctx, and with tel
// (when not nil) attached to the scheduler, the system and the
// calibration cache.
func benchRunLoopIn(b *testing.B, ctx context.Context, tel *telemetry.Telemetry,
	factory cpu.EngineFactory, mk func(...sched.Option) amp.MoveScheduler) {
	var schedOpts []sched.Option
	var telOpt amp.Option
	if tel != nil {
		interval.SetTelemetry(tel)
		defer interval.SetTelemetry(nil)
		schedOpts, telOpt = []sched.Option{sched.WithTelemetry(tel)}, amp.WithTelemetry(tel)
	}
	run := func() amp.Result {
		threads := [2]*amp.Thread{
			amp.NewThread(0, workload.MustByName("gcc"), 41, 0),
			amp.NewThread(1, workload.MustByName("equake"), 42, 1<<40),
		}
		sys := amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
			threads, mk(schedOpts...), amp.Config{}, amp.WithEngine(factory), telOpt)
		res, err := sys.RunContext(ctx, 20_000_000)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	windows := run().Cycles / interval.DefaultStride
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*windows), "ns/window")
}

func benchProposed(opts ...sched.Option) amp.MoveScheduler {
	return sched.NewProposed(sched.DefaultProposedConfig(), opts...)
}

// BenchmarkEngineRunLoopProposedSampled is the paperscale sweep's
// dominant policy: Proposed judges each thread every 1000 committed
// instructions.
func BenchmarkEngineRunLoopProposedSampled(b *testing.B) {
	benchRunLoop(b, interval.SampledFactory(), benchProposed)
}

func benchHPE(opts ...sched.Option) amp.MoveScheduler {
	return sched.NewHPE(sched.DefaultHPEConfig(), benchEstimator{}, opts...)
}

func benchRoundRobin(opts ...sched.Option) amp.MoveScheduler {
	return sched.NewRoundRobinInterval(amp.ContextSwitchCycles, opts...)
}

// BenchmarkEngineRunLoopHPESampled wakes once per quantum.
func BenchmarkEngineRunLoopHPESampled(b *testing.B) {
	benchRunLoop(b, interval.SampledFactory(), benchHPE)
}

// BenchmarkEngineRunLoopRoundRobinSampled wakes once per quantum.
func BenchmarkEngineRunLoopRoundRobinSampled(b *testing.B) {
	benchRunLoop(b, interval.SampledFactory(), benchRoundRobin)
}

// BenchmarkEngineRunLoopProposedInterval is Proposed on the interval
// engine alone (ampserve's fidelity).
func BenchmarkEngineRunLoopProposedInterval(b *testing.B) {
	benchRunLoop(b, interval.Factory(), benchProposed)
}

// BenchmarkEngineRunLoopProposedIntervalServed is the row above run
// the way ampserve runs a pair: under a cancelable context that is
// never canceled, with a telemetry registry attached. Its ns/op beside
// the row above's is what serving costs the run loop.
func BenchmarkEngineRunLoopProposedIntervalServed(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	benchRunLoopIn(b, ctx, telemetry.New(), interval.Factory(), benchProposed)
}

// BenchmarkEngineRunLoopHPEInterval is HPE on the interval engine
// alone: its quantum-long spans run in closed form, which the sampled
// rows' warm-ups hide.
func BenchmarkEngineRunLoopHPEInterval(b *testing.B) {
	benchRunLoop(b, interval.Factory(), benchHPE)
}

// BenchmarkEngineRunLoopRoundRobinInterval is Round Robin on the
// interval engine alone.
func BenchmarkEngineRunLoopRoundRobinInterval(b *testing.B) {
	benchRunLoop(b, interval.Factory(), benchRoundRobin)
}

// --- microbenchmarks of the substrate --------------------------------

// BenchmarkCoreSimulation measures simulated cycles per second of one
// out-of-order core running gcc.
func BenchmarkCoreSimulation(b *testing.B) {
	cfg := cpu.IntCoreConfig()
	bench := workload.MustByName("gcc")
	gen := workload.NewGenerator(bench, 1, 0)
	core := cpu.NewCore(cfg)
	arch := &cpu.ThreadArch{CodeBase: 1 << 36, CodeSize: bench.EffectiveCodeFootprint()}
	core.Bind(gen, arch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Step(uint64(i))
	}
}

// BenchmarkDualCoreSystem measures a full two-core system cycle under
// the proposed scheduler.
func BenchmarkDualCoreSystem(b *testing.B) {
	t0 := amp.NewThread(0, workload.MustByName("gcc"), 1, 0)
	t1 := amp.NewThread(1, workload.MustByName("equake"), 2, 1<<40)
	sys := amp.MustSystem(
		[2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
		[2]*amp.Thread{t0, t1},
		sched.NewProposed(sched.DefaultProposedConfig()), amp.Config{})
	b.ResetTimer()
	chunk := uint64(10_000)
	for i := 0; i < b.N; i++ {
		sys.MustRun(uint64(i+1) * chunk / 10)
	}
}

// BenchmarkWorkloadGenerator measures instruction synthesis.
func BenchmarkWorkloadGenerator(b *testing.B) {
	gen := workload.NewGenerator(workload.MustByName("apsi"), 1, 0)
	var in isa.Instruction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&in)
	}
}

// BenchmarkProfileCollect measures the §V profiling pass on one
// benchmark pair of cores.
func BenchmarkProfileCollect(b *testing.B) {
	intCfg, fpCfg := cpu.IntCoreConfig(), cpu.FPCoreConfig()
	benches := []*workload.Benchmark{workload.MustByName("pi")}
	for i := 0; i < b.N; i++ {
		profilegen.Collect(intCfg, fpCfg, benches, profilegen.ProfileConfig{
			InstrLimit:   60_000,
			SampleCycles: 20_000,
			Seed:         1,
		})
	}
}
