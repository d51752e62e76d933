package amp_test

import (
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/interval"
	"ampsched/internal/sched"
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
