package sched

import (
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/workload"
)

// runRealPairLimit runs benchmark a (starting on the INT core) and b
// (starting on the FP core) under scheduler s on the real simulator.
func runRealPairLimit(t *testing.T, a, b string, s amp.MoveScheduler, limit uint64) amp.Result {
	t.Helper()
	ba, err := workload.ByName(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := workload.ByName(b)
	if err != nil {
		t.Fatal(err)
	}
	t0 := amp.NewThread(0, ba, 31, 0)
	t1 := amp.NewThread(1, bb, 32, 1<<40)
	sys := amp.MustSystem(
		[2]*cpu.Config{cpu.IntCoreConfig(), cpu.FPCoreConfig()},
		[2]*amp.Thread{t0, t1}, s, amp.Config{})
	return sys.MustRun(limit)
}

func TestProposedOnRealSystemSwapsMisplacedPair(t *testing.T) {
	res := runRealPairLimit(t, "fpstress", "intstress",
		NewProposed(DefaultProposedConfig()), 300_000)
	if res.Swaps == 0 {
		t.Fatal("proposed never swapped a misplaced strongly-flavored pair")
	}
	if res.Swaps > 3 {
		t.Fatalf("proposed thrashed: %d swaps on a stationary pair", res.Swaps)
	}
}

func TestProposedExtOnRealSystemMatchesBaseWhenComputeBound(t *testing.T) {
	base := runRealPairLimit(t, "fpstress", "intstress",
		NewProposed(DefaultProposedConfig()), 300_000)
	ext := runRealPairLimit(t, "fpstress", "intstress",
		NewProposedExt(DefaultExtendedConfig()), 300_000)
	if base.Swaps != ext.Swaps {
		t.Fatalf("guard changed behavior on compute-bound pair: %d vs %d swaps",
			base.Swaps, ext.Swaps)
	}
}

func TestStaticOnRealSystemNeverSwaps(t *testing.T) {
	res := runRealPairLimit(t, "gcc", "equake", Static{}, 150_000)
	if res.Swaps != 0 {
		t.Fatalf("static swapped %d times", res.Swaps)
	}
}

func TestRRSwapCountOnRealSystem(t *testing.T) {
	rr := NewRoundRobinInterval(60_000)
	res := runRealPairLimit(t, "gcc", "equake", rr, 250_000)
	if res.Swaps == 0 {
		t.Fatal("round robin never swapped")
	}
	// Swap count bounded by elapsed cycles / interval.
	if res.Swaps > res.Cycles/60_000+1 {
		t.Fatalf("too many swaps: %d in %d cycles", res.Swaps, res.Cycles)
	}
}

func TestSchedulerNamesDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []amp.MoveScheduler{
		Static{},
		NewProposed(DefaultProposedConfig()),
		NewProposedExt(DefaultExtendedConfig()),
		NewRoundRobinInterval(amp.ContextSwitchCycles),
		NewSampling(DefaultSamplingConfig()),
	} {
		if names[s.Name()] {
			t.Fatalf("duplicate scheduler name %q", s.Name())
		}
		names[s.Name()] = true
	}
}
