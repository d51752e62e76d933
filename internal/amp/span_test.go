package amp_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/interval"
	"ampsched/internal/rng"
	"ampsched/internal/sched"
	"ampsched/internal/workload"
)

// spanFidelities are the engines whose run loops span windows
// differently: one cycle per window, analytic windows, and the
// two-tier engine — whose default 20k-cycle warm-up outlasts the first
// context poll, so the short schedule covers a poll that lands in the
// interval tier.
var spanFidelities = []struct {
	name    string
	factory cpu.EngineFactory
}{
	{"detailed", cpu.DetailedFactory},
	{"interval", interval.Factory()},
	{"sampled", interval.SampledFactory()},
	{"sampled-short", shortSampledFactory},
}

// spanPolicies covers no scheduler and the three Wakers: a cycle wake
// (RoundRobin, HPE) and commit-edge wakes (Proposed).
func spanPolicies() []struct {
	name string
	mk   func() amp.MoveScheduler
} {
	return []struct {
		name string
		mk   func() amp.MoveScheduler
	}{
		{"nil", func() amp.MoveScheduler { return nil }},
		{"roundrobin", func() amp.MoveScheduler { return sched.NewRoundRobinInterval(50_000) }},
		{"hpe", func() amp.MoveScheduler {
			return sched.NewHPE(sched.HPEConfig{Interval: 50_000, SpeedupThreshold: 1.05},
				compositionEstimator{})
		}},
		{"proposed", func() amp.MoveScheduler { return sched.NewProposed(sched.DefaultProposedConfig()) }},
	}
}

func cancelPair(seed uint64) [2]*amp.Thread {
	return [2]*amp.Thread{
		amp.NewThread(0, workload.MustByName("gcc"), seed, 0),
		amp.NewThread(1, workload.MustByName("equake"), seed+1, 1<<40),
	}
}

// TestRunContextCancel pins the cancellation latency under spans: a
// run whose context is already canceled stops at the first context
// poll — within two poll periods plus one stride — at every fidelity
// and under every scheduler that lets the loop span windows. A span
// that ran past the poll would overshoot by up to the watchdog period.
func TestRunContextCancel(t *testing.T) {
	for _, f := range spanFidelities {
		for _, p := range spanPolicies() {
			t.Run(f.name+"/"+p.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel() // already canceled: the run must stop at the first check
				rec := &amp.EventRecorder{}
				sys := amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
					cancelPair(27), p.mk(), amp.Config{},
					amp.WithEngine(f.factory), amp.WithObserver(rec))
				res, err := sys.RunContext(ctx, 1_000_000_000)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if errors.Is(err, amp.ErrWedged) {
					t.Error("cancellation must not look like a wedge")
				}
				// The partial result is still populated and bounded by
				// the check granularity.
				bound := 2*(amp.CtxCheckMask+1) + sys.Engine(0).Stride()
				if res.Cycles == 0 || res.Cycles > bound {
					t.Errorf("canceled run stopped after %d cycles, want 1..%d", res.Cycles, bound)
				}
				var canceled, ends int
				for _, e := range rec.Events() {
					switch e.Kind {
					case amp.EventCanceled:
						canceled++
					case amp.EventRunEnd:
						ends++
					}
				}
				if canceled != 1 || ends != 1 {
					t.Errorf("canceled/run_end events = %d/%d, want 1/1", canceled, ends)
				}
			})
		}
	}
}

// TestRunContextCancelMidRun cancels from inside the run, at the first
// swap: the loop resumes spanning after the scheduler's wake, and must
// still stop within two poll periods plus one stride of the cancel.
func TestRunContextCancelMidRun(t *testing.T) {
	for _, f := range spanFidelities {
		t.Run(f.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var at uint64
			obs := amp.ObserverFunc(func(e amp.Event) {
				if e.Kind == amp.EventSwap && at == 0 {
					at = e.Cycle
					cancel()
				}
			})
			sys := amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
				cancelPair(31), sched.NewRoundRobinInterval(30_000), amp.Config{},
				amp.WithEngine(f.factory), amp.WithObserver(obs))
			res, err := sys.RunContext(ctx, 1_000_000_000)
			if !errors.Is(err, context.Canceled) || at == 0 {
				t.Fatalf("err = %v after swap at cycle %d, want a canceled run", err, at)
			}
			if bound := at + 2*(amp.CtxCheckMask+1) + sys.Engine(0).Stride(); res.Cycles > bound {
				t.Errorf("canceled at cycle %d but stopped at %d, want <= %d", at, res.Cycles, bound)
			}
		})
	}
}

// commitBound wraps an engine and checks, window by window, that no
// window commits more than the MaxCommit the engine reported when the
// span began — the bound the run loop relies on to end spans before an
// instruction limit or a commit edge. Running the span one window at a
// time is bit-identical by the Engine contract.
type commitBound struct {
	cpu.Engine
	t       *testing.T
	label   string
	windows uint64
}

func (b *commitBound) Run(now, window, n uint64) {
	mc := b.Engine.MaxCommit(window)
	for i := uint64(0); i < n; i++ {
		var before uint64
		arch := b.Engine.Arch()
		if arch != nil {
			before = arch.Committed
		}
		b.Engine.Run(now+i*window, window, 1)
		b.windows++
		if arch != nil && arch.Committed-before > mc {
			b.t.Fatalf("%s: window at cycle %d committed %d > MaxCommit %d",
				b.label, now+i*window, arch.Committed-before, mc)
		}
	}
}

// TestMaxCommitBoundsEveryWindow is the property behind span lengths:
// across random pairs, swapping and morphing policies, and sampled
// schedules short enough to switch tiers mid-window, no window commits
// more than its engine's MaxCommit from the start of its span.
func TestMaxCommitBoundsEveryWindow(t *testing.T) {
	pool := workload.All()
	r := rng.New(2024)
	fidelities := []struct {
		name    string
		factory cpu.EngineFactory
		limit   uint64
	}{
		{"detailed", cpu.DetailedFactory, 20_000},
		{"interval", interval.Factory(), 1_000_000},
		{"sampled", interval.SampledFactory(), 400_000},
		{"sampled-short", shortSampledFactory, 400_000},
	}
	policies := []func() amp.MoveScheduler{
		func() amp.MoveScheduler { return sched.NewRoundRobinInterval(37_000) },
		func() amp.MoveScheduler { return sched.NewProposed(sched.DefaultProposedConfig()) },
		func() amp.MoveScheduler {
			c := sched.DefaultMorphConfig()
			c.MinMorphCycles = 20_000
			return sched.NewMorphing(c)
		},
	}
	for _, f := range fidelities {
		for i := 0; i < 3; i++ {
			a, b := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
			seed := r.Uint64n(1000)
			label := fmt.Sprintf("%s/%s+%s", f.name, a.Name, b.Name)
			var wrapped []*commitBound
			factory := func(cfg *cpu.Config) (cpu.Engine, error) {
				e, err := f.factory(cfg)
				cb := &commitBound{Engine: e, t: t, label: label}
				wrapped = append(wrapped, cb)
				return cb, err
			}
			threads := [2]*amp.Thread{
				amp.NewThread(0, a, seed, 0),
				amp.NewThread(1, b, seed+1, 1<<40),
			}
			sys := amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
				threads, policies[i%len(policies)](), amp.Config{SwapOverheadCycles: 777},
				amp.WithEngine(factory))
			if _, err := sys.Run(f.limit); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if wrapped[0].windows == 0 || wrapped[1].windows == 0 {
				t.Fatalf("%s: no windows ran", label)
			}
		}
	}
}

// runCounter wraps an engine and counts its Run calls against the
// windows they cover.
type runCounter struct {
	cpu.Engine
	calls, windows uint64
}

func (r *runCounter) Run(now, window, n uint64) {
	r.calls++
	r.windows += n
	r.Engine.Run(now, window, n)
}

// TestQuietStretchesRunAsSpans pins that spans actually happen: with
// no scheduler, or one that wakes once per quantum, each engine covers
// its windows in a few calls per quantum — after the sampled engine's
// warm-ups too, which claim no commit bound and step window by window.
func TestQuietStretchesRunAsSpans(t *testing.T) {
	for _, f := range []struct {
		name    string
		factory cpu.EngineFactory
	}{{"interval", interval.Factory()}, {"sampled", interval.SampledFactory()}} {
		for _, p := range spanPolicies()[:3] { // nil, RoundRobin, HPE
			var engines []*runCounter
			factory := func(cfg *cpu.Config) (cpu.Engine, error) {
				e, err := f.factory(cfg)
				rc := &runCounter{Engine: e}
				engines = append(engines, rc)
				return rc, err
			}
			sys := amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
				cancelPair(41), p.mk(), amp.Config{}, amp.WithEngine(factory))
			sys.MustRun(20_000_000)
			for c, e := range engines {
				if e.calls*16 > e.windows {
					t.Errorf("%s/%s core %d: %d Run calls for %d windows, want spans",
						f.name, p.name, c, e.calls, e.windows)
				}
			}
		}
	}
}
