package amp_test

import (
	"bytes"
	"fmt"
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/fault"
	"ampsched/internal/workload"
)

// compareLoops runs one pair twice, from fresh inputs each time: with
// RunContext, whose engines run whole spans and whose scheduler Ticks
// only at its wakes, and with the window-by-window reference loop. The
// two must agree on every byte of the record.
func compareLoops(t *testing.T, label string, f goldenFidelity, run func() goldenRun) {
	t.Helper()
	got, want := recordRun(f, run(), false), recordRun(f, run(), true)
	for _, d := range []struct {
		what      string
		got, want []byte
	}{
		{"Result", got.result, want.result},
		{"run error", []byte(got.err), []byte(want.err)},
		{"engine Stats", []byte(got.stats), []byte(want.stats)},
		{"timeline", got.timeline, want.timeline},
	} {
		if !bytes.Equal(d.got, d.want) {
			t.Errorf("%s: %s differs\n RunContext: %s\n reference:  %s", label, d.what, d.got, d.want)
		}
	}
	if !bytes.Equal(got.events, want.events) {
		t.Errorf("%s: event bytes differ (%d bytes from RunContext, %d from the reference)",
			label, len(got.events), len(want.events))
	}
}

// TestReferenceLoopMatchesRunContext is the differential over
// TestPairRunGolden's table: every policy on every golden pair at
// every fidelity, the 45k-cycle sampled schedule included, and the
// fault-plan, observer, swap-overhead, timeline and cycle-budget runs.
// RunContext must equal the reference loop, which calls each engine
// once per window (so the interval engine never takes its closed form)
// and Ticks the scheduler every window.
func TestReferenceLoopMatchesRunContext(t *testing.T) {
	for _, f := range goldenFidelities() {
		for _, c := range goldenCases(f) {
			for i, run := range c.runs {
				compareLoops(t, fmt.Sprintf("%s/%s/%d", f.name, c.name, i), f, run)
			}
		}
	}
}

// TestReferenceLoopOddStride runs the interval engine at a 100-cycle
// stride, not a power of two, through both loops, with the context
// canceled at several events: the loops must poll at the same cycles
// and agree on every byte.
func TestReferenceLoopOddStride(t *testing.T) {
	f := goldenFidelity{"interval-stride100", stride100Factory, 2_000_000, 300_000}
	for _, p := range goldenPolicies()[:4] {
		for _, cancelAt := range []int{0, 1, 4} {
			compareLoops(t, fmt.Sprintf("%s/cancel at %d", p.name, cancelAt), f, func() goldenRun {
				a, b := workload.MustByName("fpstress"), workload.MustByName("intstress")
				return goldenRun{a: a.Name, b: b.Name, seed: 13, sched: p.mk(f, a, b, 13), cancelAt: cancelAt}
			})
		}
	}
}

// FuzzReferenceLoop widens the differential to random pairs, policies,
// fidelities, fault seeds, swap overheads, timelines, cycle budgets and
// cancellation points (the context is canceled at the run's
// cancelAt-th event, which both loops emit at the same cycle).
func FuzzReferenceLoop(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(0), uint8(1), uint64(7), uint16(0), uint16(0), uint32(0), uint32(0), uint8(0))
	f.Add(uint8(1), uint8(3), uint8(5), uint8(9), uint64(3), uint16(5), uint16(333), uint32(0), uint32(0), uint8(0))
	f.Add(uint8(2), uint8(2), uint8(12), uint8(20), uint64(9), uint16(0), uint16(0), uint32(77_000), uint32(0), uint8(0))
	f.Add(uint8(3), uint8(1), uint8(30), uint8(4), uint64(2), uint16(11), uint16(4_000), uint32(0), uint32(90_000), uint8(0))
	f.Add(uint8(3), uint8(3), uint8(8), uint8(8), uint64(5), uint16(0), uint16(0), uint32(31_000), uint32(0), uint8(3))
	f.Add(uint8(0), uint8(6), uint8(17), uint8(2), uint64(1), uint16(0), uint16(100), uint32(0), uint32(0), uint8(1))
	f.Add(uint8(0), uint8(7), uint8(25), uint8(33), uint64(4), uint16(8), uint16(0), uint32(5_000), uint32(40_000), uint8(0))
	f.Add(uint8(1), uint8(0), uint8(13), uint8(6), uint64(8), uint16(0), uint16(0), uint32(0), uint32(0), uint8(2))
	f.Add(uint8(2), uint8(4), uint8(21), uint8(36), uint64(6), uint16(3), uint16(2_500), uint32(0), uint32(700_000), uint8(4))
	// Caught a Reach that drops its phaseRem cap (interval, gcc+equake)
	// and a sampled Reach without its tier horizon (45k schedule,
	// fpstress+intstress).
	f.Add(uint8(1), uint8(0), uint8(17), uint8(13), uint64(11), uint16(0), uint16(0), uint32(0), uint32(0), uint8(0))
	f.Add(uint8(3), uint8(1), uint8(16), uint8(19), uint64(18), uint16(7), uint16(0), uint32(0), uint32(0), uint8(0))
	f.Add(uint8(3), uint8(1), uint8(16), uint8(19), uint64(18), uint16(0), uint16(500), uint32(20_000), uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, fid, pol, a, b uint8, seed uint64, faults, overhead uint16,
		timeline, budget uint32, cancelAt uint8) {
		fids, pols, all := goldenFidelities(), goldenPolicies(), workload.All()
		fd, p := fids[int(fid)%len(fids)], pols[int(pol)%len(pols)]
		ba, bb := all[int(a)%len(all)], all[int(b)%len(all)]
		seed %= 1 << 20
		label := fmt.Sprintf("%s/%s/%s+%s/seed %d/faults %d/overhead %d/timeline %d/budget %d/cancel at %d",
			fd.name, p.name, ba.Name, bb.Name, seed, faults, overhead, timeline, budget, cancelAt%8)
		compareLoops(t, label, fd, func() goldenRun {
			r := goldenRun{a: ba.Name, b: bb.Name, seed: seed, sched: p.mk(fd, ba, bb, seed),
				cfg: amp.Config{SwapOverheadCycles: uint64(overhead)}, cancelAt: int(cancelAt % 8)}
			if faults != 0 {
				r.opts = []amp.Option{amp.WithFaultPlan(fault.MustNew(fault.Config{
					Seed: uint64(faults), SwapFailRate: 0.3, SwapDelayRate: 0.4}))}
			}
			if timeline != 0 {
				r.timeline = 1_000 + uint64(timeline)%fd.quantum
			}
			if budget != 0 {
				r.cfg.CycleBudget = max(uint64(overhead), amp.DefaultSwapOverheadCycles) + 1 +
					uint64(budget)%(4*fd.quantum)
			}
			return r
		})
	})
}
