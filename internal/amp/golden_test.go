package amp_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/fault"
	"ampsched/internal/interval"
	"ampsched/internal/monitor"
	"ampsched/internal/sched"
	"ampsched/internal/workload"
)

// goldenFidelity is one simulation fidelity of the golden pair runs,
// with a run length and a scheduling quantum scaled to its speed.
type goldenFidelity struct {
	name    string
	factory cpu.EngineFactory
	limit   uint64 // instructions per thread
	quantum uint64 // cycles between coarse-grained decisions
}

// shortSampledFactory is a sampled engine whose schedule wraps every
// 45k cycles, neither a multiple of the interval stride nor of the
// warm-up lengths, so runs cross tier boundaries mid-window.
func shortSampledFactory(cfg *cpu.Config) (cpu.Engine, error) {
	s := interval.NewSampled(cfg, 3_000, 45_000)
	s.SetReanchorCycles(1_000)
	return s, nil
}

func goldenFidelities() []goldenFidelity {
	return []goldenFidelity{
		{"detailed", cpu.DetailedFactory, 90_000, 30_000},
		{"interval", interval.Factory(), 4_000_000, 500_000},
		{"sampled", interval.SampledFactory(), 2_000_000, 500_000},
		{"sampled-short", shortSampledFactory, 600_000, 100_000},
	}
}

// goldenPairs are the seeded thread pairs every policy runs.
var goldenPairs = [][2]string{
	{"gcc", "equake"},
	{"fpstress", "intstress"},
	{"mcf", "apsi"},
}

// compositionEstimator is a deterministic stand-in for the profiled
// HPE estimators: INT-heavy compositions favor the INT core.
type compositionEstimator struct{}

func (compositionEstimator) Name() string { return "composition" }

func (compositionEstimator) RatioIntOverFP(intPct, fpPct float64) float64 {
	return (10 + intPct) / (10 + 3*fpPct)
}

// goldenPolicy builds one dual-core policy for a fidelity's scale and
// a pair (the oracle profiles the pair it will schedule).
type goldenPolicy struct {
	name string
	mk   func(f goldenFidelity, a, b *workload.Benchmark, seed uint64) amp.MoveScheduler
}

func goldenPolicies() []goldenPolicy {
	proposedCfg := func(f goldenFidelity) sched.ProposedConfig {
		c := sched.DefaultProposedConfig()
		c.ForceInterval = f.quantum
		return c
	}
	return []goldenPolicy{
		{"nil", func(goldenFidelity, *workload.Benchmark, *workload.Benchmark, uint64) amp.MoveScheduler {
			return nil
		}},
		{"proposed", func(f goldenFidelity, _, _ *workload.Benchmark, _ uint64) amp.MoveScheduler {
			return sched.NewProposed(proposedCfg(f))
		}},
		{"hpe", func(f goldenFidelity, _, _ *workload.Benchmark, _ uint64) amp.MoveScheduler {
			return sched.NewHPE(sched.HPEConfig{Interval: f.quantum, SpeedupThreshold: 1.05},
				compositionEstimator{})
		}},
		{"roundrobin", func(f goldenFidelity, _, _ *workload.Benchmark, _ uint64) amp.MoveScheduler {
			return sched.NewRoundRobinInterval(f.quantum)
		}},
		{"proposedext", func(f goldenFidelity, _, _ *workload.Benchmark, _ uint64) amp.MoveScheduler {
			c := sched.DefaultExtendedConfig()
			c.Base = proposedCfg(f)
			return sched.NewProposedExt(c)
		}},
		{"sampling", func(f goldenFidelity, _, _ *workload.Benchmark, _ uint64) amp.MoveScheduler {
			return sched.NewSampling(sched.SamplingConfig{
				Interval: f.quantum, SampleLen: f.quantum / 16, KeepThreshold: 1.02,
			})
		}},
		{"morphing", func(f goldenFidelity, _, _ *workload.Benchmark, _ uint64) amp.MoveScheduler {
			c := sched.DefaultMorphConfig()
			c.Base = proposedCfg(f)
			c.MinMorphCycles = f.quantum / 4
			return sched.NewMorphing(c)
		}},
		{"oracle", func(_ goldenFidelity, a, b *workload.Benchmark, seed uint64) amp.MoveScheduler {
			o, err := sched.OracleProfile(cpu.IntCoreConfig(), cpu.FPCoreConfig(),
				a, b, seed, seed+1, 30_000, 1000)
			if err != nil {
				panic(err)
			}
			return o
		}},
	}
}

// goldenRun is one pair run's inputs beyond the fidelity: the pair,
// the scheduler, system options, an optional timeline and an optional
// cancellation point.
type goldenRun struct {
	a, b     string
	seed     uint64
	sched    amp.MoveScheduler
	cfg      amp.Config
	opts     []amp.Option
	timeline uint64
	cancelAt int // cancel the run's context at its cancelAt-th event (0: never)
}

// pairRecord is everything observable about one pair run: the whole
// Result, the run error, the event recorder's canonical bytes, the
// engines' final ledgers and any timeline.
type pairRecord struct {
	result, events, timeline []byte
	err, stats               string
}

// recordRun runs r with RunContext, or with the window-by-window
// reference loop, and records it.
func recordRun(f goldenFidelity, r goldenRun, reference bool) pairRecord {
	ta := amp.NewThread(0, workload.MustByName(r.a), r.seed, 0)
	tb := amp.NewThread(1, workload.MustByName(r.b), r.seed+1, 1<<40)
	rec := &amp.EventRecorder{}
	opts := append([]amp.Option{amp.WithEngine(f.factory), amp.WithObserver(rec)}, r.opts...)
	ctx := context.Background()
	if r.cancelAt > 0 {
		c, cancel := context.WithCancel(ctx)
		defer cancel()
		events := 0
		opts = append(opts, amp.WithObserver(amp.ObserverFunc(func(amp.Event) {
			if events++; events == r.cancelAt {
				cancel()
			}
		})))
		ctx = c
	}
	sys := amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
		[2]*amp.Thread{ta, tb}, r.sched, r.cfg, opts...)
	if r.timeline > 0 {
		sys.EnableTimeline(r.timeline)
	}
	run := sys.RunContext
	if reference {
		run = sys.RunReference
	}
	res, err := run(ctx, f.limit)
	var out pairRecord
	var jerr error
	if out.result, jerr = json.Marshal(res); jerr != nil {
		panic(jerr)
	}
	out.err = fmt.Sprint(err)
	out.events = rec.TraceBytes()
	sys.Detach()
	out.stats = fmt.Sprintf("%+v|%+v", sys.Engine(0).Stats(), sys.Engine(1).Stats())
	if r.timeline > 0 {
		if out.timeline, jerr = json.Marshal(sys.Timeline()); jerr != nil {
			panic(jerr)
		}
	}
	return out
}

// digest folds the record into h.
func (p pairRecord) digest(h hash.Hash64) {
	h.Write(p.result)
	fmt.Fprintf(h, "|%s|", p.err)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(p.events)))
	h.Write(n[:])
	h.Write(p.events)
	fmt.Fprintf(h, "|%s|", p.stats)
	h.Write(p.timeline)
}

// goldenCase is one digest of TestPairRunGolden: the runs it folds, in
// order. Each call of a run builds fresh inputs, schedulers and fault
// plans included.
type goldenCase struct {
	name string
	runs []func() goldenRun
}

// goldenCases lists every case of one fidelity: each policy over the
// golden pairs, then the fault-plan, observer, timeline and
// cycle-budget runs.
func goldenCases(f goldenFidelity) []goldenCase {
	var cases []goldenCase
	for _, p := range goldenPolicies() {
		c := goldenCase{name: p.name}
		for i, pr := range goldenPairs {
			seed := uint64(11 + 7*i)
			c.runs = append(c.runs, func() goldenRun {
				a, b := workload.MustByName(pr[0]), workload.MustByName(pr[1])
				return goldenRun{a: pr[0], b: pr[1], seed: seed, sched: p.mk(f, a, b, seed)}
			})
		}
		cases = append(cases, c)
	}

	proposed := func() amp.MoveScheduler {
		c := sched.DefaultProposedConfig()
		c.ForceInterval = f.quantum
		return sched.NewProposed(c)
	}
	swapFaults := fault.Config{Seed: 5, SwapFailRate: 0.3, SwapDelayRate: 0.4}
	extras := []struct {
		name string
		run  func() goldenRun
	}{
		{"faultplan-rr", func() goldenRun {
			return goldenRun{a: "gcc", b: "equake", seed: 3,
				sched: sched.NewRoundRobinInterval(f.quantum / 3),
				opts:  []amp.Option{amp.WithFaultPlan(fault.MustNew(swapFaults))}}
		}},
		{"faultplan-proposed", func() goldenRun {
			return goldenRun{a: "fpstress", b: "intstress", seed: 4, sched: proposed(),
				opts: []amp.Option{amp.WithFaultPlan(fault.MustNew(swapFaults))}}
		}},
		{"faultmonitor", func() goldenRun {
			plan := fault.MustNew(fault.Config{Seed: 9, SampleDropRate: 0.2,
				SampleStaleRate: 0.2, SampleNoisePct: 15, SwapFailRate: 0.1})
			var tag uint64
			c := sched.DefaultProposedConfig()
			c.ForceInterval = f.quantum
			s := sched.NewProposed(c, sched.WithObserverFactory(func(window uint64) monitor.Observer {
				tag++
				return plan.Observer(monitor.NewWindowTracker(window), tag)
			}))
			return goldenRun{a: "mixstress", b: "gcc", seed: 6, sched: s,
				opts: []amp.Option{amp.WithFaultPlan(plan)}}
		}},
		{"timeline", func() goldenRun {
			return goldenRun{a: "equake", b: "gcc", seed: 8,
				sched: sched.NewRoundRobinInterval(f.quantum), timeline: f.quantum/3 + 77,
				cfg: amp.Config{SwapOverheadCycles: 333}}
		}},
		{"budget", func() goldenRun {
			return goldenRun{a: "mcf", b: "intstress", seed: 2,
				sched: sched.NewHPE(sched.HPEConfig{Interval: f.quantum / 2, SpeedupThreshold: 1.05},
					compositionEstimator{}),
				cfg: amp.Config{CycleBudget: 3*f.quantum + 1234}}
		}},
	}
	for _, x := range extras {
		cases = append(cases, goldenCase{name: x.name, runs: []func() goldenRun{x.run}})
	}
	return cases
}

// TestPairRunGolden pins whole dual-core pair runs — every policy at
// every fidelity, plus fault-injected, timeline and cycle-budget runs —
// to digests of their Result, event stream, engine ledgers and
// timeline. A change to the run loop or the engines that is meant to
// be a pure speed-up must leave every digest exactly as recorded.
func TestPairRunGolden(t *testing.T) {
	want := map[string]uint64{
		"detailed/budget":                  0x5ed50ad77d5b8514,
		"detailed/faultmonitor":            0x91c750670606ad61,
		"detailed/faultplan-proposed":      0xcad8461332a2c3a1,
		"detailed/faultplan-rr":            0xe077ec020f34ff16,
		"detailed/hpe":                     0x2549071abbe4583c,
		"detailed/morphing":                0xbbb1f33b9287ae12,
		"detailed/nil":                     0x6da09369f385bb82,
		"detailed/oracle":                  0xb56b38ef2e25c78d,
		"detailed/proposed":                0x2b2015b27173cb25,
		"detailed/proposedext":             0xd40b09f8c1b15e67,
		"detailed/roundrobin":              0x33a6c54338e4280c,
		"detailed/sampling":                0x9b4f9d3f2efdce40,
		"detailed/timeline":                0x32db685bbba96080,
		"interval/budget":                  0xfcd8c00c48f89bf0,
		"interval/faultmonitor":            0xedc94b26a712a19e,
		"interval/faultplan-proposed":      0xf954cdf1d70cdbb9,
		"interval/faultplan-rr":            0xfb412da15aa0bc53,
		"interval/hpe":                     0xddb6ede687a07e4b,
		"interval/morphing":                0x1be7fa85df83dc04,
		"interval/nil":                     0x7930e2a855fe1652,
		"interval/oracle":                  0xf160469609552d36,
		"interval/proposed":                0xf990bea943efc081,
		"interval/proposedext":             0x8b83a205a66798eb,
		"interval/roundrobin":              0xb94ec99d88a20c69,
		"interval/sampling":                0xff06564af6359982,
		"interval/timeline":                0x2683cc31c044ec7b,
		"sampled/budget":                   0x9eff4ff1d266b20d,
		"sampled/faultmonitor":             0xf5dc05ec3615616c,
		"sampled/faultplan-proposed":       0x7ec46a0e08782011,
		"sampled/faultplan-rr":             0x6f307728f8f385d1,
		"sampled/hpe":                      0xd0dc7443bfec6a7d,
		"sampled/morphing":                 0xadf8e647da984c48,
		"sampled/nil":                      0x6c1e7bf9e0674622,
		"sampled/oracle":                   0x1dcb297851df5954,
		"sampled/proposed":                 0xcf0b221dc5f8a984,
		"sampled/proposedext":              0x41a80e0ca605aba6,
		"sampled/roundrobin":               0x9e6f4fdd8967d766,
		"sampled/sampling":                 0x5ffd6eb13898cef9,
		"sampled/timeline":                 0x37ee34961add2778,
		"sampled-short/budget":             0xa13cb2e79cc3f6e4,
		"sampled-short/faultmonitor":       0x96f96e8b0def4942,
		"sampled-short/faultplan-proposed": 0xaa5ae22b8b6ba9f8,
		"sampled-short/faultplan-rr":       0xa9bacaf334b42dba,
		"sampled-short/hpe":                0x245e5a76950b45c7,
		"sampled-short/morphing":           0x367a8eac0fffd9bb,
		"sampled-short/nil":                0xd0c6d4aeebe5305f,
		"sampled-short/oracle":             0xb97132d73906d8b8,
		"sampled-short/proposed":           0x5f1ea91ef12c885d,
		"sampled-short/proposedext":        0xf49617b37bba6d23,
		"sampled-short/roundrobin":         0x4fb2c0ad3f0b56b7,
		"sampled-short/sampling":           0xaf0365286e27133b,
		"sampled-short/timeline":           0x206910763147d991,
	}
	seen := 0
	for _, f := range goldenFidelities() {
		for _, c := range goldenCases(f) {
			h := fnv.New64a()
			for _, run := range c.runs {
				recordRun(f, run(), false).digest(h)
			}
			seen++
			key := f.name + "/" + c.name
			if w, ok := want[key]; !ok || w != h.Sum64() {
				t.Errorf("%q: %#016x, want %#016x", key, h.Sum64(), w)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("ran %d cases, want %d", seen, len(want))
	}
}
