package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/interval"
	"ampsched/internal/telemetry"
	"ampsched/internal/workload"
)

// counterRun is one interval pair run of TestCountersSumConcurrentRuns.
type counterRun struct {
	a, b     string
	seed     uint64
	mk       func(...Option) amp.MoveScheduler
	cancelAt int    // cancel the run at its cancelAt-th swap (0: never)
	budget   uint64 // the run's cycle budget (0: none)
}

// run runs r with its scheduler and system publishing into tel.
func (r counterRun) run(tel *telemetry.Telemetry) (amp.Result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	swaps := 0
	obs := amp.ObserverFunc(func(e amp.Event) {
		if e.Kind == amp.EventSwap {
			if swaps++; swaps == r.cancelAt {
				cancel()
			}
		}
	})
	threads := [2]*amp.Thread{
		amp.NewThread(0, workload.MustByName(r.a), r.seed, 0),
		amp.NewThread(1, workload.MustByName(r.b), r.seed+1, 1<<40),
	}
	sys, err := amp.NewSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
		threads, r.mk(WithTelemetry(tel)), amp.Config{CycleBudget: r.budget},
		amp.WithEngine(interval.Factory()), amp.WithTelemetry(tel), amp.WithObserver(obs))
	if err != nil {
		return amp.Result{}, err
	}
	return sys.RunContext(ctx, 1_000_000)
}

// schedCounters returns the registry's sched.* counters by name.
func schedCounters(tel *telemetry.Telemetry) map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range tel.Registry().Snapshot() {
		if m.Kind == "counter" && strings.HasPrefix(m.Name, "sched.") {
			out[m.Name] = uint64(m.Value)
		}
	}
	return out
}

// TestCountersSumConcurrentRuns pins the sched.<policy>.* totals when
// Proposed, ProposedExt, Morphing, HPE and Round Robin runs publish
// into one registry at once, one of them canceled mid-run and one
// wedged by its cycle budget: every total — the vetoes and the morph
// decisions included — is the sum of what the runs count alone, and
// decisions, swap requests and vetoes are the sums of the runs'
// Result.Sched.
func TestCountersSumConcurrentRuns(t *testing.T) {
	const quantum = 200_000
	base := DefaultProposedConfig()
	base.ForceInterval = quantum
	// key is the counter prefix of a policy's Result.Sched: Morphing's
	// swap rules are its embedded Proposed's.
	policies := []struct {
		key string
		mk  func(...Option) amp.MoveScheduler
	}{
		{"proposed", func(opts ...Option) amp.MoveScheduler { return NewProposed(base, opts...) }},
		{"proposed-ext", func(opts ...Option) amp.MoveScheduler {
			c := DefaultExtendedConfig()
			c.Base = base
			return NewProposedExt(c, opts...)
		}},
		{"proposed", func(opts ...Option) amp.MoveScheduler {
			c := DefaultMorphConfig()
			c.Base = base
			return NewMorphing(c, opts...)
		}},
		{"hpe-biased", func(opts ...Option) amp.MoveScheduler {
			return NewHPE(HPEConfig{Interval: quantum, SpeedupThreshold: 1.05}, biasedEstimator{}, opts...)
		}},
		{"roundrobin", func(opts ...Option) amp.MoveScheduler { return NewRoundRobinInterval(quantum, opts...) }},
	}
	var runs []counterRun
	var names []string
	// On art+mcf the guard vetoes mcf's INT surges.
	for i, p := range [][2]string{{"gcc", "equake"}, {"fpstress", "intstress"}, {"mcf", "apsi"}, {"art", "mcf"}} {
		for _, pol := range policies {
			runs = append(runs, counterRun{a: p[0], b: p[1], seed: uint64(5 + 64*i), mk: pol.mk})
			names = append(names, pol.key)
		}
	}
	canceled, wedged := len(policies), 2*len(policies)-1
	runs[canceled].cancelAt = 1   // Proposed on the misplaced pair
	runs[wedged].budget = 300_000 // Round Robin on the misplaced pair

	shared := telemetry.New()
	results := make([]amp.Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = runs[i].run(shared)
		}()
	}
	wg.Wait()
	if !errors.Is(errs[canceled], context.Canceled) || !errors.Is(errs[wedged], amp.ErrWedged) {
		t.Fatalf("want run %d canceled and run %d wedged, got %v and %v",
			canceled, wedged, errs[canceled], errs[wedged])
	}

	want := map[string]uint64{}
	fromResults := map[string]uint64{}
	for i, r := range runs {
		if i != canceled && i != wedged && errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		alone := telemetry.New()
		res, err := r.run(alone)
		if fmt.Sprint(err) != fmt.Sprint(errs[i]) || res != results[i] {
			t.Fatalf("run %d differs alone: %v, want %v", i, err, errs[i])
		}
		for name, v := range schedCounters(alone) {
			want[name] += v
		}
		p := "sched." + names[i] + "."
		fromResults[p+"decisions"] += res.Sched.DecisionPoints
		fromResults[p+"swap_requests"] += res.Sched.SwapRequests
		fromResults[p+"vetoes"] += res.Sched.Vetoes
	}
	got := schedCounters(shared)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d summed over the runs alone", name, got[name], v)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s appears only with the runs concurrent", name)
		}
	}
	for name, v := range fromResults {
		if got[name] != v {
			t.Errorf("%s = %d, want %d summed over the runs' Result.Sched", name, got[name], v)
		}
	}
	for _, name := range []string{"sched.proposed.windows", "sched.hpe-biased.decisions",
		"sched.proposed-ext.vetoes", "sched.morphing.morph_ons", "sched.morphing.morph_offs"} {
		if got[name] == 0 {
			t.Errorf("%s = 0: the runs pin nothing there", name)
		}
	}
	reg := shared.Registry()
	if n := reg.Counter("amp.runs").Value(); n != uint64(len(runs)) {
		t.Errorf("amp.runs = %d, want %d", n, len(runs))
	}
	if c, w := reg.Counter("amp.cancels").Value(), reg.Counter("amp.wedges").Value(); c != 1 || w != 1 {
		t.Errorf("amp.cancels, amp.wedges = %d, %d, want 1, 1", c, w)
	}
}
