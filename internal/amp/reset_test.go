package amp_test

import (
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/interval"
	"ampsched/internal/sched"
	"ampsched/internal/telemetry"
	"ampsched/internal/workload"
)

// failAll is a swap injector that drops every request it sees.
type failAll struct{ calls int }

func (f *failAll) SwapOutcome(uint64) amp.SwapOutcome {
	f.calls++
	return amp.SwapOutcome{Fail: true}
}

// TestResetDropsFaultPlan pins that a WithFaultPlan injector lives for
// one run only: fault plans are stateful, so a pooled system re-armed
// by Reset must swap fault-free and never consult the old plan.
func TestResetDropsFaultPlan(t *testing.T) {
	pair := func(seed uint64) [2]*amp.Thread {
		return [2]*amp.Thread{
			amp.NewThread(0, workload.MustByName("gcc"), seed, 0),
			amp.NewThread(1, workload.MustByName("equake"), seed+1, 1<<40),
		}
	}
	inj := &failAll{}
	sys := amp.MustSystem(
		[2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
		pair(1), sched.NewRoundRobinInterval(20_000), amp.Config{},
		amp.WithEngine(interval.Factory()), amp.WithFaultPlan(inj))
	first := sys.MustRun(300_000)
	if first.FailedSwaps == 0 || first.Swaps != 0 {
		t.Fatalf("first run: failed %d swaps %d, want every swap failed",
			first.FailedSwaps, first.Swaps)
	}
	calls := inj.calls

	if err := sys.Reset(pair(3), sched.NewRoundRobinInterval(20_000), amp.Config{}); err != nil {
		t.Fatal(err)
	}
	second := sys.MustRun(300_000)
	if second.FailedSwaps != 0 || second.Swaps == 0 {
		t.Fatalf("after Reset: failed %d swaps %d, want no failures and some swaps",
			second.FailedSwaps, second.Swaps)
	}
	if inj.calls != calls {
		t.Fatalf("the dropped injector was consulted %d more times", inj.calls-calls)
	}
}

// TestResetEngineCountersSumRuns pins the per-engine telemetry counters
// on a pooled system: Reset zeroes the engine ledgers, so the counters'
// run deltas must restart from zero with them. Three runs with Reset
// between them must add up every instruction and cycle each run
// simulated, not just the last run's.
func TestResetEngineCountersSumRuns(t *testing.T) {
	tel := telemetry.New()
	var sys *amp.System
	var commits, cycles uint64
	for run := uint64(0); run < 3; run++ {
		threads := [2]*amp.Thread{
			amp.NewThread(0, workload.MustByName("gcc"), 5+run, 0),
			amp.NewThread(1, workload.MustByName("equake"), 9+run, 1<<40),
		}
		rr := sched.NewRoundRobinInterval(40_000)
		cfg := amp.Config{}
		if sys == nil {
			sys = amp.MustSystem([2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
				threads, rr, cfg, amp.WithEngine(interval.Factory()), amp.WithTelemetry(tel))
		} else if err := sys.Reset(threads, rr, cfg); err != nil {
			t.Fatal(err)
		}
		sys.MustRun(400_000 - 100_000*run)
		for c := 0; c < 2; c++ {
			st := sys.Engine(c).Stats()
			commits += st.Committed
			cycles += st.Act.Cycles + st.Act.StallCycles
		}
	}
	reg := tel.Registry()
	if got := reg.Counter("engine.interval.commits").Value(); got != commits {
		t.Errorf("engine.interval.commits = %d, want %d summed over three runs", got, commits)
	}
	if got := reg.Counter("engine.interval.cycles").Value(); got != cycles {
		t.Errorf("engine.interval.cycles = %d, want %d summed over three runs", got, cycles)
	}
}
