package interval

import (
	"testing"

	"ampsched/internal/cpu"
	"ampsched/internal/isa"
	"ampsched/internal/workload"
)

// TestCalibrationDeterministicAndCached pins the calibration contract:
// Calibrate is a pure function of (config, units, benchmark), and
// calibrationFor memoizes it so one process calibrates each key once.
func TestCalibrationDeterministicAndCached(t *testing.T) {
	cfg := cpu.IntCoreConfig()
	bench := workload.MustByName("gcc")

	a := Calibrate(cfg, cfg.Units, bench)
	b := Calibrate(cfg, cfg.Units, bench)
	if a.MeasuredIPC != b.MeasuredIPC || a.Correction != b.Correction || a.Committed != b.Committed {
		t.Fatalf("repeated calibrations differ: %+v vs %+v", a, b)
	}
	if len(a.PhaseIPC) != len(bench.Phases) {
		t.Fatalf("want %d phase IPCs, got %d", len(bench.Phases), len(a.PhaseIPC))
	}
	for p, ipc := range a.PhaseIPC {
		if ipc != b.PhaseIPC[p] {
			t.Fatalf("phase %d IPC differs: %g vs %g", p, ipc, b.PhaseIPC[p])
		}
		if ipc <= 0 {
			t.Fatalf("phase %d IPC not positive: %g", p, ipc)
		}
	}

	c1 := calibrationFor(cfg, cfg.Units, bench)
	c2 := calibrationFor(cfg, cfg.Units, bench)
	if c1 != c2 {
		t.Fatal("calibrationFor did not return the cached *Calibration")
	}
}

// TestSkipMatchesNext verifies the generator fast-forward the interval
// engine relies on: Skip(n) must leave the phase bookkeeping exactly
// where n Next calls would.
func TestSkipMatchesNext(t *testing.T) {
	bench := workload.MustByName("apsi") // 3 phases
	for _, n := range []uint64{1, 999, 10_000, 300_000} {
		stepped := workload.NewGenerator(bench, 5, 0)
		var in isa.Instruction
		for i := uint64(0); i < n; i++ {
			stepped.Next(&in)
		}
		skipped := workload.NewGenerator(bench, 5, 0)
		skipped.Skip(n)

		sp, sr := stepped.PhasePos()
		kp, kr := skipped.PhasePos()
		if sp != kp || sr != kr {
			t.Fatalf("n=%d: Next-walked generator at phase %d (rem %d), Skip at phase %d (rem %d)",
				n, sp, sr, kp, kr)
		}
	}
}

// TestEngineClassSumMatchesCommitted runs the interval engine for many
// windows and checks the per-class commit ledger: each class count is
// a floored accumulator, so the class sum may trail Committed by at
// most one residual fraction per class.
func TestEngineClassSumMatchesCommitted(t *testing.T) {
	cfg := cpu.IntCoreConfig()
	bench := workload.MustByName("gcc")
	eng := New(cfg)
	gen := workload.NewGenerator(bench, 9, 0)
	arch := &cpu.ThreadArch{CodeBase: 1 << 36, CodeSize: bench.EffectiveCodeFootprint()}
	eng.Bind(gen, arch)
	var now uint64
	for arch.Committed < 200_000 {
		eng.Run(now, eng.Stride(), 1)
		now += eng.Stride()
	}
	arch.Sync() // the engine attributes classes lazily; readers sync first
	var classSum uint64
	for c := 0; c < int(isa.NumClasses); c++ {
		classSum += arch.CommittedByClass[c]
	}
	if classSum > arch.Committed {
		t.Fatalf("class sum %d exceeds committed %d", classSum, arch.Committed)
	}
	if arch.Committed-classSum >= uint64(isa.NumClasses) {
		t.Fatalf("class sum %d trails committed %d by more than the %d residual fractions",
			classSum, arch.Committed, isa.NumClasses)
	}
	if st := eng.Stats(); st.Committed != arch.Committed {
		t.Fatalf("engine committed %d != arch committed %d", st.Committed, arch.Committed)
	}
}

// TestEngineStatsLedger checks that the synthesized Activity and cache
// ledgers stay consistent: cycles tracked exactly, counters monotone
// across snapshots, and the per-instruction rates roughly preserved.
func TestEngineStatsLedger(t *testing.T) {
	cfg := cpu.FPCoreConfig()
	bench := workload.MustByName("equake")
	eng := New(cfg)
	gen := workload.NewGenerator(bench, 3, 0)
	arch := &cpu.ThreadArch{CodeBase: 1 << 36, CodeSize: bench.EffectiveCodeFootprint()}
	eng.Bind(gen, arch)

	var now uint64
	var prev cpu.EngineStats
	for i := 0; i < 50; i++ {
		eng.Run(now, DefaultStride, 1)
		now += DefaultStride
		st := eng.Stats()
		if st.Act.Cycles != now {
			t.Fatalf("active cycles %d != %d windows run", st.Act.Cycles, now)
		}
		if st.Act.ROBWrites < prev.Act.ROBWrites || st.L1D.Accesses < prev.L1D.Accesses ||
			st.L2.Misses < prev.L2.Misses || st.Committed < prev.Committed {
			t.Fatalf("counters went backwards between snapshots: %+v -> %+v", prev, st)
		}
		prev = st
	}
	eng.StallCycles(100)
	if st := eng.Stats(); st.Act.StallCycles != 100 {
		t.Fatalf("stall cycles %d, want 100", st.Act.StallCycles)
	}
}

// TestEngineReconfigureContract pins the morph-path rules: Reconfigure
// refuses while bound, and accepts (changing the calibration key) when
// unbound.
func TestEngineReconfigureContract(t *testing.T) {
	cfg := cpu.IntCoreConfig()
	bench := workload.MustByName("gcc")
	eng := New(cfg)
	gen := workload.NewGenerator(bench, 1, 0)
	arch := &cpu.ThreadArch{CodeBase: 1 << 36, CodeSize: bench.EffectiveCodeFootprint()}
	eng.Bind(gen, arch)
	if err := eng.Reconfigure(cpu.MorphStrongUnits()); err == nil {
		t.Fatal("Reconfigure while bound must fail")
	}
	eng.Unbind()
	if err := eng.Reconfigure(cpu.MorphStrongUnits()); err != nil {
		t.Fatalf("Reconfigure while unbound: %v", err)
	}
}
