package manycore

// Scheduler-loop scale benchmarks, rows of the committed
// BENCH_micro.json, record the "incremental decision loop" property
// (make bench-check fails on an allocs/op increase and prints a row
// past +10% ns/op). The gate benchmark shows an off-quantum Tick is
// O(1) at any machine size;
// the epoch benchmarks show per-quantum cost at hundreds of cores ×
// thousands of threads stays dominated by the O(threads) observation
// pass, not an O(threads×cores) placement rescan (64x512 → 256x2048
// grows the n×m product 16×; epoch time must track the ~4× thread
// growth, not the product).

import (
	"fmt"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
)

const benchQuantum = 10_000

// newBenchView builds an n-core (alternating INT/FP pools), m-thread
// synthetic view; like the policy unit tests it drives schedulers
// without simulation engines, so the benchmark isolates decision-loop
// cost.
func newBenchView(n, m int) *fakeView {
	cfgs := make([]*cpu.Config, n)
	pools := make([]int, n)
	for c := 0; c < n; c++ {
		if c%2 == 0 {
			cfgs[c] = cpu.IntCoreConfig()
		} else {
			cfgs[c] = cpu.FPCoreConfig()
			pools[c] = 1
		}
	}
	return newFakeView(cfgs, pools, m)
}

// epochStep advances one quantum: credit every bound thread's commit
// and energy counters with a varied, deterministic workload shape,
// then tick and apply.
func epochStep(f *fakeView, s amp.MoveScheduler) {
	for th := range f.arch {
		if f.coreOf[th] < 0 {
			continue
		}
		d := uint64(benchQuantum/2) + uint64(th%7)*benchQuantum/16
		f.arch[th].Committed += d
		if th%3 == 0 {
			f.arch[th].CommittedByClass[1] += d
		} else {
			f.arch[th].CommittedByClass[0] += d
		}
		f.energy[th] += float64(benchQuantum) * 2
	}
	f.cycle += benchQuantum
	f.apply(s.Tick(f))
}

func benchPolicies() map[string]func() amp.MoveScheduler {
	return map[string]func() amp.MoveScheduler{
		"rank":     func() amp.MoveScheduler { return NewRank(DefaultRankConfig()) },
		"bigsmall": func() amp.MoveScheduler { return NewBigSmall(DefaultBigSmallConfig()) },
		"twophase": func() amp.MoveScheduler { return NewTwoPhase(DefaultTwoPhaseConfig()) },
	}
}

// BenchmarkManycoreTickGate measures the off-quantum fast path: the
// cycle never reaches a decision boundary, so every Tick must return
// immediately regardless of machine size.
func BenchmarkManycoreTickGate(b *testing.B) {
	for _, sz := range []struct{ n, m int }{{64, 512}, {256, 2048}} {
		for _, policy := range []string{"rank", "bigsmall", "twophase"} {
			s := benchPolicies()[policy]()
			f := newBenchView(sz.n, sz.m)
			s.Reset(f)
			epochStep(f, s) // settle one epoch so state is warm
			b.Run(fmt.Sprintf("%s/%dx%d", policy, sz.n, sz.m), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if mv := s.Tick(f); mv != nil {
						b.Fatal("gate emitted moves without a quantum boundary")
					}
				}
			})
		}
	}
}

// BenchmarkManycoreEpoch measures one full decision quantum (observe,
// rank, place, apply) at scale.
func BenchmarkManycoreEpoch(b *testing.B) {
	for _, sz := range []struct{ n, m int }{{64, 512}, {256, 2048}} {
		for _, policy := range []string{"rank", "bigsmall", "twophase"} {
			b.Run(fmt.Sprintf("%s/%dx%d", policy, sz.n, sz.m), func(b *testing.B) {
				s := benchPolicies()[policy]()
				f := newBenchView(sz.n, sz.m)
				s.Reset(f)
				for i := 0; i < 8; i++ {
					epochStep(f, s) // settle into steady state
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					epochStep(f, s)
				}
			})
		}
	}
}
