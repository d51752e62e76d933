package cpu

import (
	"testing"

	"ampsched/internal/isa"
	"ampsched/internal/workload"
)

// runSolo drives a core over a benchmark until limit commits and
// returns the core, thread state and elapsed cycles.
func runSolo(t testing.TB, cfg *Config, bench string, seed, limit uint64) (*Core, *ThreadArch, uint64) {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(b, seed, 0)
	core := NewCore(cfg)
	arch := &ThreadArch{CodeBase: 1 << 36, CodeSize: b.EffectiveCodeFootprint()}
	core.Bind(gen, arch)
	var cycle uint64
	for arch.Committed < limit {
		core.Step(cycle)
		cycle++
		if cycle > 100*limit+1_000_000 {
			t.Fatalf("core wedged: %d commits after %d cycles", arch.Committed, cycle)
		}
	}
	return core, arch, cycle
}

func TestConfigsValid(t *testing.T) {
	if err := IntCoreConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := FPCoreConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidationErrors(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.ROBSize = -1 },
		func(c *Config) { c.ROBSize = robSlots + 1 },
		func(c *Config) { c.IntISQ = 0 },
		func(c *Config) { c.LSQLoads = 0 },
		func(c *Config) { c.IntRegs = 0 },
		func(c *Config) { c.Units[UIntALU].Count = 0 },
		func(c *Config) { c.Units[UFPDiv].Latency = 0 },
		func(c *Config) { c.MispredictPenalty = 0 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.BranchHistoryBits = 0 },
		func(c *Config) { c.Caches.MemLatency = 0 },
		func(c *Config) { c.Caches.L1I.SizeBytes = 0 },
	}
	for i, mutate := range mutations {
		cfg := *IntCoreConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTableIIAsymmetry(t *testing.T) {
	intC, fpC := IntCoreConfig(), FPCoreConfig()
	// The INT core's integer units are pipelined and at least as many
	// as the FP core's; the FP core's FP units are pipelined.
	for _, k := range []UnitKind{UIntALU, UIntMul, UIntDiv} {
		if !intC.Units[k].Pipelined || fpC.Units[k].Pipelined {
			t.Errorf("%s pipelining asymmetry wrong", k)
		}
	}
	for _, k := range []UnitKind{UFPALU, UFPMul, UFPDiv} {
		if !fpC.Units[k].Pipelined || intC.Units[k].Pipelined {
			t.Errorf("%s pipelining asymmetry wrong", k)
		}
	}
	if intC.IntRegs <= fpC.IntRegs || intC.FPRegs >= fpC.FPRegs {
		t.Error("register-file asymmetry wrong")
	}
	if intC.IntISQ <= fpC.IntISQ || intC.FPISQ >= fpC.FPISQ {
		t.Error("issue-queue asymmetry wrong")
	}
}

func TestUnitKindString(t *testing.T) {
	if UIntALU.String() != "IntALU" || UMemPort.String() != "MemPort" {
		t.Fatal("unit names wrong")
	}
	if UnitKind(99).String() == "" {
		t.Fatal("out-of-range name empty")
	}
}

func TestCommitsReachLimit(t *testing.T) {
	_, arch, _ := runSolo(t, IntCoreConfig(), "gcc", 1, 20_000)
	if arch.Committed < 20_000 {
		t.Fatalf("committed %d < limit", arch.Committed)
	}
	// Commit width bounds the overshoot.
	if arch.Committed > 20_000+4 {
		t.Fatalf("committed %d overshoots by more than the commit width", arch.Committed)
	}
}

func TestCommittedClassesSum(t *testing.T) {
	_, arch, _ := runSolo(t, FPCoreConfig(), "apsi", 2, 20_000)
	var sum uint64
	for _, v := range arch.CommittedByClass {
		sum += v
	}
	if sum != arch.Committed {
		t.Fatalf("class counts sum to %d, Committed = %d", sum, arch.Committed)
	}
}

func TestIPCPlausible(t *testing.T) {
	cfg := IntCoreConfig()
	_, arch, cycles := runSolo(t, cfg, "intstress", 3, 50_000)
	ipc := float64(arch.Committed) / float64(cycles)
	if ipc <= 0.2 || ipc > float64(cfg.CommitWidth) {
		t.Fatalf("intstress IPC %.3f implausible", ipc)
	}
}

func TestDeterministicRuns(t *testing.T) {
	c1, a1, cy1 := runSolo(t, IntCoreConfig(), "gcc", 7, 20_000)
	c2, a2, cy2 := runSolo(t, IntCoreConfig(), "gcc", 7, 20_000)
	if cy1 != cy2 {
		t.Fatalf("cycle counts differ: %d vs %d", cy1, cy2)
	}
	if !a1.Equal(a2) {
		t.Fatalf("arch state differs")
	}
	if c1.Activity() != c2.Activity() {
		t.Fatalf("activity differs")
	}
}

func TestIntWorkloadFasterOnIntCore(t *testing.T) {
	_, _, cyInt := runSolo(t, IntCoreConfig(), "intstress", 4, 50_000)
	_, _, cyFP := runSolo(t, FPCoreConfig(), "intstress", 4, 50_000)
	if cyInt >= cyFP {
		t.Fatalf("intstress: INT core took %d cycles, FP core %d", cyInt, cyFP)
	}
}

func TestFPWorkloadFasterOnFPCore(t *testing.T) {
	_, _, cyInt := runSolo(t, IntCoreConfig(), "fpstress", 4, 50_000)
	_, _, cyFP := runSolo(t, FPCoreConfig(), "fpstress", 4, 50_000)
	if cyFP >= cyInt {
		t.Fatalf("fpstress: FP core took %d cycles, INT core %d", cyFP, cyInt)
	}
}

func TestBranchMispredictionSlowsDown(t *testing.T) {
	// branchstress (0.70 predictability) must achieve lower IPC than
	// the similarly integer-bound but predictable sha.
	_, aBad, cyBad := runSolo(t, IntCoreConfig(), "branchstress", 5, 30_000)
	_, aGood, cyGood := runSolo(t, IntCoreConfig(), "sha", 5, 30_000)
	ipcBad := float64(aBad.Committed) / float64(cyBad)
	ipcGood := float64(aGood.Committed) / float64(cyGood)
	if ipcBad >= ipcGood {
		t.Fatalf("mispredict-heavy workload IPC %.3f >= predictable workload %.3f", ipcBad, ipcGood)
	}
}

func TestMemoryBoundSlow(t *testing.T) {
	_, aMem, cyMem := runSolo(t, IntCoreConfig(), "memstress", 6, 20_000)
	_, aCpu, cyCpu := runSolo(t, IntCoreConfig(), "intstress", 6, 20_000)
	ipcMem := float64(aMem.Committed) / float64(cyMem)
	ipcCpu := float64(aCpu.Committed) / float64(cyCpu)
	if ipcMem*2 > ipcCpu {
		t.Fatalf("memstress IPC %.3f not clearly below intstress %.3f", ipcMem, ipcCpu)
	}
}

func TestInFlightBounded(t *testing.T) {
	cfg := IntCoreConfig()
	b := workload.MustByName("swim")
	gen := workload.NewGenerator(b, 9, 0)
	core := NewCore(cfg)
	arch := &ThreadArch{CodeBase: 0, CodeSize: b.EffectiveCodeFootprint()}
	core.Bind(gen, arch)
	bound := cfg.ROBSize + 2*cfg.FetchWidth
	for cycle := uint64(0); cycle < 30_000; cycle++ {
		core.Step(cycle)
		if fl := core.InFlight(); fl > bound {
			t.Fatalf("in-flight %d exceeds ROB+fetch buffer %d at cycle %d", fl, bound, cycle)
		}
	}
}

func TestDoubleBindPanics(t *testing.T) {
	core := NewCore(IntCoreConfig())
	b := workload.MustByName("pi")
	gen := workload.NewGenerator(b, 1, 0)
	arch := &ThreadArch{CodeSize: 1024}
	core.Bind(gen, arch)
	defer func() {
		if recover() == nil {
			t.Fatal("double Bind did not panic")
		}
	}()
	core.Bind(gen, arch)
}

func TestBindZeroCodeSizePanics(t *testing.T) {
	core := NewCore(IntCoreConfig())
	b := workload.MustByName("pi")
	gen := workload.NewGenerator(b, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Bind with zero CodeSize did not panic")
		}
	}()
	core.Bind(gen, &ThreadArch{})
}

func TestUnbindSquashes(t *testing.T) {
	cfg := IntCoreConfig()
	b := workload.MustByName("gcc")
	gen := workload.NewGenerator(b, 11, 0)
	core := NewCore(cfg)
	arch := &ThreadArch{CodeSize: b.EffectiveCodeFootprint()}
	core.Bind(gen, arch)
	var cycle uint64
	for ; core.InFlight() == 0 && cycle < 10_000; cycle++ {
		core.Step(cycle)
	}
	inFlight := core.InFlight()
	if inFlight == 0 {
		t.Fatal("expected in-flight work before unbind")
	}
	squashed := core.Unbind()
	if squashed != uint64(inFlight) {
		t.Fatalf("squashed %d, in-flight was %d", squashed, inFlight)
	}
	if core.InFlight() != 0 || core.Bound() {
		t.Fatal("core not empty after Unbind")
	}
	if core.Activity().Squashed != squashed {
		t.Fatal("squash not recorded in activity")
	}
	// Core is reusable.
	arch2 := &ThreadArch{NextSeq: arch.NextSeq, CodeSize: b.EffectiveCodeFootprint()}
	core.Bind(gen, arch2)
	for end := cycle + 20_000; cycle < end && arch2.Committed == 0; cycle++ {
		core.Step(cycle)
	}
	if arch2.Committed == 0 {
		t.Fatal("rebound core does not commit")
	}
}

func TestUnbindIdempotentWhenEmpty(t *testing.T) {
	core := NewCore(IntCoreConfig())
	if core.Unbind() != 0 {
		t.Fatal("Unbind on fresh core returned nonzero")
	}
}

func TestStepWithoutThreadIsNoop(t *testing.T) {
	core := NewCore(IntCoreConfig())
	core.Step(0)
	if core.Activity().Cycles != 0 {
		t.Fatal("unbound Step counted an active cycle")
	}
}

func TestStallCycleCounts(t *testing.T) {
	core := NewCore(IntCoreConfig())
	core.StallCycle()
	core.StallCycle()
	if core.Activity().StallCycles != 2 {
		t.Fatal("stall cycles not counted")
	}
}

func TestActivityConsistency(t *testing.T) {
	core, arch, _ := runSolo(t, IntCoreConfig(), "gcc", 13, 20_000)
	act := core.Activity()
	if act.Renames != act.ROBWrites {
		t.Errorf("renames %d != ROB writes %d", act.Renames, act.ROBWrites)
	}
	if act.ROBReads != arch.Committed {
		t.Errorf("ROB reads %d != committed %d", act.ROBReads, arch.Committed)
	}
	dispatched := act.IntISQWrites + act.FPISQWrites
	if dispatched != act.Renames {
		t.Errorf("ISQ writes %d != renames %d", dispatched, act.Renames)
	}
	issued := act.IntISQIssues + act.FPISQIssues
	if issued != act.TotalOps() {
		t.Errorf("ISQ issues %d != unit ops %d", issued, act.TotalOps())
	}
	// Everything committed was fetched; fetched >= committed.
	if act.FetchedOps < arch.Committed {
		t.Errorf("fetched %d < committed %d", act.FetchedOps, arch.Committed)
	}
}

func TestActivitySub(t *testing.T) {
	core, _, _ := runSolo(t, IntCoreConfig(), "pi", 17, 5_000)
	a := core.Activity()
	zero := a.Sub(a)
	if zero.TotalOps() != 0 || zero.Cycles != 0 || zero.Renames != 0 {
		t.Fatal("a.Sub(a) not zero")
	}
	if d := a.Sub(Activity{}); d != a {
		t.Fatal("a.Sub(zero) != a")
	}
}

func TestLargeCodeFootprintSlower(t *testing.T) {
	// Same workload statistics, different code footprint: the larger
	// footprint must produce more IL1 misses and lower IPC.
	b := workload.MustByName("gcc") // 48K code
	small := *b
	small.CodeFootprint = 1 << 10

	run := func(bench *workload.Benchmark) (float64, uint64) {
		gen := workload.NewGenerator(bench, 19, 0)
		core := NewCore(IntCoreConfig())
		arch := &ThreadArch{CodeSize: bench.EffectiveCodeFootprint()}
		core.Bind(gen, arch)
		var cycle uint64
		for arch.Committed < 30_000 {
			core.Step(cycle)
			cycle++
		}
		return float64(arch.Committed) / float64(cycle), core.Hierarchy().L1I.Stats().Misses
	}
	ipcBig, missBig := run(b)
	ipcSmall, missSmall := run(&small)
	if missBig <= missSmall {
		t.Fatalf("IL1 misses: big code %d <= small code %d", missBig, missSmall)
	}
	if ipcBig >= ipcSmall {
		t.Fatalf("IPC: big code %.3f >= small code %.3f", ipcBig, ipcSmall)
	}
}

func TestThreadArchPercentages(t *testing.T) {
	arch := &ThreadArch{}
	if arch.IntPct() != 0 || arch.FPPct() != 0 {
		t.Fatal("empty arch percentages nonzero")
	}
	arch.Committed = 10
	arch.CommittedByClass[isa.IntALU] = 4
	arch.CommittedByClass[isa.FPMul] = 3
	arch.CommittedByClass[isa.Load] = 3
	if arch.IntPct() != 40 || arch.FPPct() != 30 {
		t.Fatalf("percentages: int %.1f fp %.1f", arch.IntPct(), arch.FPPct())
	}
}

func TestNonPipelinedThroughput(t *testing.T) {
	// On the FP core the single non-pipelined 2-cycle IntALU bounds
	// pure integer throughput near 0.5 ops/cycle; the INT core's two
	// pipelined 1-cycle ALUs do not.
	_, arch1, cy1 := runSolo(t, FPCoreConfig(), "bitcount", 21, 30_000)
	ipcFP := float64(arch1.Committed) / float64(cy1)
	if ipcFP > 0.85 {
		t.Fatalf("bitcount on FP core IPC %.3f exceeds weak-ALU bound", ipcFP)
	}
	_, arch2, cy2 := runSolo(t, IntCoreConfig(), "bitcount", 21, 30_000)
	ipcInt := float64(arch2.Committed) / float64(cy2)
	if ipcInt < ipcFP*1.3 {
		t.Fatalf("bitcount: INT core IPC %.3f not clearly above FP core %.3f", ipcInt, ipcFP)
	}
}

func TestMigratedThreadContinuesSeq(t *testing.T) {
	// Unbind from one core, rebind the same thread arch on another:
	// sequence numbers and committed counters keep advancing.
	b := workload.MustByName("apsi")
	gen := workload.NewGenerator(b, 23, 0)
	arch := &ThreadArch{CodeSize: b.EffectiveCodeFootprint()}
	c1 := NewCore(IntCoreConfig())
	c1.Bind(gen, arch)
	var cycle uint64
	for arch.Committed < 5_000 {
		c1.Step(cycle)
		cycle++
	}
	c1.Unbind()
	committedAtSwap := arch.Committed
	c2 := NewCore(FPCoreConfig())
	c2.Bind(gen, arch)
	for arch.Committed < 10_000 {
		c2.Step(cycle)
		cycle++
	}
	if arch.Committed <= committedAtSwap {
		t.Fatal("no progress after migration")
	}
}

func TestJumpTargetDeterministicAligned(t *testing.T) {
	for _, size := range []uint64{1 << 10, 48 << 10} {
		for site := uint64(0x400000); site < 0x400100; site += 16 {
			a := jumpTarget(site, size)
			b := jumpTarget(site, size)
			if a != b {
				t.Fatal("jumpTarget not deterministic")
			}
			if a >= size || a%4 != 0 {
				t.Fatalf("jumpTarget %#x invalid for size %#x", a, size)
			}
		}
	}
}
