package sched

import (
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cache"
)

func TestExtendedConfigValidation(t *testing.T) {
	good := DefaultExtendedConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultExtendedConfig()
	c.MemBoundL2MissRate = 1.5
	if err := c.Validate(); err == nil {
		t.Fatal("miss rate > 1 accepted")
	}
	c = DefaultExtendedConfig()
	c.MemBoundIPC = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative IPC threshold accepted")
	}
	c = DefaultExtendedConfig()
	c.Base.WindowSize = 0
	if err := c.Validate(); err == nil {
		t.Fatal("invalid base accepted")
	}
}

// driveExt advances windows like driveProposed, also advancing the L2
// counters of the core thread tid sits on with the given miss rate.
func driveExt(p *ProposedExt, v *fakeView, windows int,
	t0Int, t0FP, t1Int, t1FP float64, missRate [2]float64) bool {
	for i := 0; i < windows; i++ {
		v.cycle += 1000
		v.commit(0, 1000, t0Int, t0FP)
		v.commit(1, 1000, t1Int, t1FP)
		for th := 0; th < 2; th++ {
			core := v.CoreOfThread(th)
			v.l2[core].Accesses += 100
			v.l2[core].Misses += uint64(100 * missRate[th])
		}
		if len(p.Tick(v)) != 0 {
			return true
		}
	}
	return false
}

func TestExtSwapsWhenNotMemBound(t *testing.T) {
	// Same misplacement as the base scheduler test; low miss rates:
	// the extension must behave exactly like the base and swap.
	v := newFakeView()
	cfg := DefaultExtendedConfig()
	cfg.Base.DisableForcedSwap = true
	p := NewProposedExt(cfg)
	p.Reset(v)
	if !driveExt(p, v, 10, 10, 60, 70, 0, [2]float64{0.01, 0.01}) {
		t.Fatal("extension did not swap cleanly-placed compute-bound threads")
	}
	if p.Vetoes() != 0 {
		t.Fatalf("spurious vetoes: %d", p.Vetoes())
	}
}

func TestExtVetoesMemBoundBeneficiary(t *testing.T) {
	// Thread 0 (INT core) surges in FP — but it is memory-bound
	// (80% L2 miss rate), so moving it to the FP core cannot help:
	// the guard converts the trigger into a stay vote.
	v := newFakeView()
	cfg := DefaultExtendedConfig()
	cfg.Base.DisableForcedSwap = true
	p := NewProposedExt(cfg)
	p.Reset(v)
	// Thread 1 stays below IntHigh so only rule 2(ii) can trigger.
	if driveExt(p, v, 30, 10, 60, 30, 0, [2]float64{0.8, 0.01}) {
		t.Fatal("extension swapped a memory-bound thread")
	}
	if p.Vetoes() == 0 {
		t.Fatal("guard never fired")
	}
	if p.SchedStats().DecisionPoints == 0 {
		t.Fatal("no decision points")
	}
}

func TestExtVetoLowIPC(t *testing.T) {
	// Commit only 1000 instructions per 100_000 cycles: window IPC
	// 0.01 < MemBoundIPC 0.10 -> veto even with perfect caches.
	v := newFakeView()
	cfg := DefaultExtendedConfig()
	cfg.Base.DisableForcedSwap = true
	p := NewProposedExt(cfg)
	p.Reset(v)
	swapped := false
	for i := 0; i < 30 && !swapped; i++ {
		v.cycle += 100_000
		v.commit(0, 1000, 10, 60)
		// The partner must not crave the other core (IntPct below
		// IntHigh) or the guard correctly defers to its benefit.
		v.commit(1, 1000, 30, 0)
		for th := 0; th < 2; th++ {
			core := v.CoreOfThread(th)
			v.l2[core].Accesses += 100 // no misses
		}
		swapped = len(p.Tick(v)) != 0
	}
	if swapped {
		t.Fatal("extension swapped a stall-bound thread")
	}
	if p.Vetoes() == 0 {
		t.Fatal("low-IPC guard never fired")
	}
}

func TestExtForcedSwapStillWorks(t *testing.T) {
	// The fairness swap of Fig. 5 step 3 is not subject to the guard.
	v := newFakeView()
	cfg := DefaultExtendedConfig()
	cfg.Base.ForceInterval = 50_000
	p := NewProposedExt(cfg)
	p.Reset(v)
	if !driveExt(p, v, 80, 5, 60, 5, 60, [2]float64{0.9, 0.9}) {
		t.Fatal("forced fairness swap did not fire under the extension")
	}
}

func TestExtRearmsAfterMigration(t *testing.T) {
	// After a binding change the L2 delta would mix cores; the state
	// must re-arm instead of producing a bogus miss rate.
	v := newFakeView()
	cfg := DefaultExtendedConfig()
	cfg.Base.DisableForcedSwap = true
	p := NewProposedExt(cfg)
	p.Reset(v)
	driveExt(p, v, 3, 10, 60, 70, 0, [2]float64{0.01, 0.01})
	v.swapBinding()
	// One window after migration: memBound must not fire from stale
	// cross-core deltas; scheme keeps working without panics.
	driveExt(p, v, 5, 10, 60, 70, 0, [2]float64{0.01, 0.01})
}

func TestExtL2StatsInterface(t *testing.T) {
	v := newFakeView()
	v.l2[0] = cache.Stats{Accesses: 10, Misses: 5}
	if v.L2Stats(0).MissRate() != 0.5 {
		t.Fatal("fake view L2 stats wrong")
	}
}

// TestPooledResetAllocatesNothing pins the pooled path a served pair
// takes: re-arming Proposed or ProposedExt for the next run reuses the
// trackers, the voter and the memory guard in place.
func TestPooledResetAllocatesNothing(t *testing.T) {
	v := newFakeView()
	for _, s := range []amp.MoveScheduler{
		NewProposed(DefaultProposedConfig()),
		NewProposedExt(DefaultExtendedConfig()),
	} {
		s.Reset(v)
		if n := testing.AllocsPerRun(10, func() { s.Reset(v) }); n != 0 {
			t.Errorf("%s: pooled Reset allocates %.0f objects, want 0", s.Name(), n)
		}
	}
}
