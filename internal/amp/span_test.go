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
// differently: one cycle per window, analytic windows, the two-tier
// engine — whose default 20k-cycle warm-up outlasts the first context
// poll, so the short schedule covers a poll that lands in the interval
// tier — and analytic windows at a stride that is not a power of two.
var spanFidelities = []struct {
	name    string
	factory cpu.EngineFactory
}{
	{"detailed", cpu.DetailedFactory},
	{"interval", interval.Factory()},
	{"sampled", interval.SampledFactory()},
	{"sampled-short", shortSampledFactory},
	{"interval-stride100", stride100Factory},
}

// strideEngine runs an engine at another stride: the analytic engines
// take each window's length from the run loop.
type strideEngine struct {
	cpu.Engine
	stride uint64
}

func (e strideEngine) Stride() uint64 { return e.stride }

// stride100Factory builds interval engines that run 100-cycle windows.
func stride100Factory(cfg *cpu.Config) (cpu.Engine, error) {
	e, err := interval.Factory()(cfg)
	return strideEngine{Engine: e, stride: 100}, err
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
// poll — within two poll periods of amp.CtxPollWindows windows plus one
// stride — at every fidelity and under every scheduler that lets the
// loop span windows. A span that ran past the poll would overshoot by
// up to the watchdog period.
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
				stride := sys.Engine(0).Stride()
				bound := 2*amp.CtxPollWindows*stride + stride
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
			stride := sys.Engine(0).Stride()
			if bound := at + 2*amp.CtxPollWindows*stride + stride; res.Cycles > bound {
				t.Errorf("canceled at cycle %d but stopped at %d, want <= %d", at, res.Cycles, bound)
			}
		})
	}
}

// reachBound wraps an engine and checks the promise behind span
// lengths: it records each Reach answer, and the Run that follows
// replays its windows one at a time (bit-identical by the Engine
// contract), failing if the Run covers more windows than Reach allowed
// or if any window but the last ends with the thread's Committed at or
// past the edge.
type reachBound struct {
	cpu.Engine
	t       *testing.T
	label   string
	reach   uint64 // the pending Reach answer; 0 once a Run consumed it
	edge    uint64
	spans   uint64 // Reach answers above one window
	windows uint64
}

func (b *reachBound) Reach(window, n, edge uint64) uint64 {
	m := b.Engine.Reach(window, n, edge)
	if m < 1 || m > n {
		b.t.Fatalf("%s: Reach(%d, %d, %d) = %d, want 1..%d", b.label, window, n, edge, m, n)
	}
	if m > 1 {
		b.spans++
	}
	b.reach, b.edge = m, edge
	return m
}

func (b *reachBound) Run(now, window, n uint64) {
	m, edge := b.reach, b.edge
	b.reach = 0
	if m != 0 && n > m {
		b.t.Fatalf("%s: Run of %d windows at cycle %d after Reach allowed %d", b.label, n, now, m)
	}
	arch := b.Engine.Arch()
	for i := uint64(0); i < n; i++ {
		b.Engine.Run(now+i*window, window, 1)
		b.windows++
		if m != 0 && i+1 < n && arch != nil && arch.Committed >= edge {
			b.t.Fatalf("%s: window %d of %d at cycle %d reached Committed %d >= edge %d",
				b.label, i+1, n, now+i*window, arch.Committed, edge)
		}
	}
}

// TestReachBoundsEveryWindow is the property behind span lengths:
// across random pairs, swapping, Proposed and morphing policies, and
// sampled schedules short enough to switch tiers mid-window, no span
// runs more windows than its engines' Reach allowed, and no window but
// a span's last reaches the commit edge Reach was asked about.
func TestReachBoundsEveryWindow(t *testing.T) {
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
			var wrapped []*reachBound
			factory := func(cfg *cpu.Config) (cpu.Engine, error) {
				e, err := f.factory(cfg)
				rb := &reachBound{Engine: e, t: t, label: label}
				wrapped = append(wrapped, rb)
				return rb, err
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
			// The morphing policy is no Waker: it ticks every window,
			// and Reach is never asked.
			if i%len(policies) != 2 && (wrapped[0].spans == 0 || wrapped[1].spans == 0) {
				t.Errorf("%s: Reach allowed no span (%d, %d)", label, wrapped[0].spans, wrapped[1].spans)
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

// tickCounter counts a Proposed scheduler's Tick calls; embedding
// keeps its NextWake, so the run loop still sees a Waker.
type tickCounter struct {
	*sched.Proposed
	ticks uint64
}

func (c *tickCounter) Tick(v amp.View) []amp.Move {
	c.ticks++
	return c.Proposed.Tick(v)
}

// TestQuietStretchesRunAsSpans pins that spans actually happen: with
// no scheduler, or one that wakes once per quantum, each engine covers
// its windows in a few calls per quantum — after the sampled engine's
// warm-ups too. Proposed wakes at every 1000-instruction window edge
// of either thread, and each engine runs about one span per Tick: the
// span ends at the window that can reach the next edge. Its Tick count
// is the number of windows that reach a wake, which spans must not
// change.
func TestQuietStretchesRunAsSpans(t *testing.T) {
	for _, f := range []struct {
		name          string
		factory       cpu.EngineFactory
		proposedTicks uint64
	}{{"interval", interval.Factory(), 22_544}, {"sampled", interval.SampledFactory(), 22_524}} {
		for _, p := range spanPolicies() {
			var engines []*runCounter
			factory := func(cfg *cpu.Config) (cpu.Engine, error) {
				e, err := f.factory(cfg)
				rc := &runCounter{Engine: e}
				engines = append(engines, rc)
				return rc, err
			}
			sch := p.mk()
			var tc *tickCounter
			if pr, ok := sch.(*sched.Proposed); ok {
				tc = &tickCounter{Proposed: pr}
				sch = tc
			}
			sys := amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
				cancelPair(41), sch, amp.Config{}, amp.WithEngine(factory))
			sys.MustRun(20_000_000)
			for c, e := range engines {
				switch {
				case tc != nil && e.calls*4 > tc.ticks*5:
					t.Errorf("%s/%s core %d: %d Run calls for %d Ticks, want at most 1.25 per Tick",
						f.name, p.name, c, e.calls, tc.ticks)
				case tc == nil && e.calls*16 > e.windows:
					t.Errorf("%s/%s core %d: %d Run calls for %d windows, want spans",
						f.name, p.name, c, e.calls, e.windows)
				}
			}
			if tc != nil && tc.ticks != f.proposedTicks {
				t.Errorf("%s/%s: %d Ticks, want %d", f.name, p.name, tc.ticks, f.proposedTicks)
			}
		}
	}
}

// defaultOptionPolicies are the sweep's three policies at the
// experiments' default 400k-cycle quantum.
func defaultOptionPolicies() []func(...sched.Option) amp.MoveScheduler {
	const quantum = 400_000
	return []func(...sched.Option) amp.MoveScheduler{
		func(opts ...sched.Option) amp.MoveScheduler {
			c := sched.DefaultProposedConfig()
			c.ForceInterval = quantum
			return sched.NewProposed(c, opts...)
		},
		func(opts ...sched.Option) amp.MoveScheduler {
			return sched.NewHPE(sched.HPEConfig{Interval: quantum, SpeedupThreshold: 1.05},
				compositionEstimator{}, opts...)
		},
		func(opts ...sched.Option) amp.MoveScheduler { return sched.NewRoundRobinInterval(quantum, opts...) },
	}
}

// TestCancelableRunSpansAsBackground pins what cancelability costs the
// run loop: interval runs at the experiments' default options (1.5M
// instructions, a 400k-cycle quantum) under a cancelable context that
// is never canceled take at most 1% more engine Run calls than under
// context.Background(), with identical results. A poll every 4096
// cycles ended each span at 32 windows, and cost such runs 61% more
// calls.
func TestCancelableRunSpansAsBackground(t *testing.T) {
	pairs := [][2]string{{"gcc", "equake"}, {"fpstress", "intstress"}, {"mcf", "apsi"}, {"mixstress", "bzip2"}}
	run := func(ctx context.Context, a, b string, seed uint64, mk func(...sched.Option) amp.MoveScheduler) (amp.Result, uint64) {
		var engines []*runCounter
		factory := func(cfg *cpu.Config) (cpu.Engine, error) {
			e, err := interval.Factory()(cfg)
			rc := &runCounter{Engine: e}
			engines = append(engines, rc)
			return rc, err
		}
		threads := [2]*amp.Thread{
			amp.NewThread(0, workload.MustByName(a), seed, 0),
			amp.NewThread(1, workload.MustByName(b), seed+1, 1<<40),
		}
		sys := amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
			threads, mk(), amp.Config{}, amp.WithEngine(factory))
		res, err := sys.RunContext(ctx, 1_500_000)
		if err != nil {
			t.Fatalf("%s+%s: %v", a, b, err)
		}
		return res, engines[0].calls + engines[1].calls
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var background, cancelable uint64
	for i, p := range pairs {
		for j, mk := range defaultOptionPolicies() {
			seed := uint64(7 + 64*i)
			want, bg := run(context.Background(), p[0], p[1], seed, mk)
			got, cc := run(ctx, p[0], p[1], seed, mk)
			if got != want {
				t.Errorf("%s+%s policy %d: result differs under a cancelable context", p[0], p[1], j)
			}
			background += bg
			cancelable += cc
		}
	}
	if cancelable*100 > background*101 {
		t.Errorf("cancelable runs took %d Run calls, %d under context.Background(): %+.1f%%, want at most +1%%",
			cancelable, background, 100*(float64(cancelable)/float64(background)-1))
	}
}

// TestCancelBoundedInWindows cancels from an observer — before the
// run, at the first swap and at the third — at every fidelity, and
// counts each engine's windows the way reachBound does: no engine runs
// more than amp.CtxPollWindows+1 windows after the cancel, whatever its
// stride, so the latency is bounded by the loop's work.
func TestCancelBoundedInWindows(t *testing.T) {
	for _, f := range spanFidelities {
		for _, swapAt := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("%s/swap%d", f.name, swapAt), func(t *testing.T) {
				var engines []*runCounter
				factory := func(cfg *cpu.Config) (cpu.Engine, error) {
					e, err := f.factory(cfg)
					rc := &runCounter{Engine: e}
					engines = append(engines, rc)
					return rc, err
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var atWindows [2]uint64
				var swaps int
				obs := amp.ObserverFunc(func(e amp.Event) {
					if e.Kind == amp.EventSwap {
						swaps++
					}
					if ctx.Err() == nil && (swapAt == 0 && e.Kind == amp.EventRunStart ||
						swapAt > 0 && e.Kind == amp.EventSwap && swaps == swapAt) {
						cancel()
						for c, rc := range engines {
							atWindows[c] = rc.windows
						}
					}
				})
				sys := amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
					cancelPair(37), sched.NewRoundRobinInterval(30_000), amp.Config{},
					amp.WithEngine(factory), amp.WithObserver(obs))
				if _, err := sys.RunContext(ctx, 1_000_000_000); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				for c, rc := range engines {
					if after := rc.windows - atWindows[c]; after > amp.CtxPollWindows+1 {
						t.Errorf("core %d ran %d windows after the cancel, want at most %d",
							c, after, amp.CtxPollWindows+1)
					}
				}
			})
		}
	}
}
