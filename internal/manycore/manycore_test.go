package manycore

import (
	"testing"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/workload"
)

// quadCores returns the canonical 2-INT (pool 0) + 2-FP (pool 1)
// machine.
func quadCores() []CoreSpec {
	return []CoreSpec{
		{Config: cpu.IntCoreConfig(), Pool: 0},
		{Config: cpu.IntCoreConfig(), Pool: 0},
		{Config: cpu.FPCoreConfig(), Pool: 1},
		{Config: cpu.FPCoreConfig(), Pool: 1},
	}
}

// specs builds ThreadSpecs for the named benchmarks with consecutive
// seeds.
func specs(t *testing.T, base uint64, names ...string) []ThreadSpec {
	t.Helper()
	out := make([]ThreadSpec, len(names))
	for i, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ThreadSpec{Bench: b, Seed: base + uint64(i)}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	ts := specs(t, 1, "gcc")
	if _, err := New(nil, ts, nil, Config{}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := New(quadCores(), nil, nil, Config{}); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := New([]CoreSpec{{Config: nil}}, ts, nil, Config{}); err == nil {
		t.Fatal("nil core config accepted")
	}
	if _, err := New([]CoreSpec{{Config: cpu.IntCoreConfig(), Pool: MaxPools}}, ts, nil, Config{}); err == nil {
		t.Fatal("out-of-range pool accepted")
	}
	if _, err := New(quadCores(), []ThreadSpec{{Bench: nil}}, nil, Config{}); err == nil {
		t.Fatal("nil benchmark accepted")
	}
}

func TestStaticRun(t *testing.T) {
	sys, err := New(quadCores(),
		specs(t, 10, "intstress", "gcc", "fpstress", "equake"),
		Static{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.MustRun(60_000)
	if res.Reassigns != 0 {
		t.Fatalf("static reassigned %d times", res.Reassigns)
	}
	if len(res.Threads) != 4 {
		t.Fatalf("thread results: %d", len(res.Threads))
	}
	for i, tr := range res.Threads {
		if tr.IPCPerWatt <= 0 {
			t.Fatalf("thread %d IPC/Watt %g", i, tr.IPCPerWatt)
		}
	}
	if res.GeomeanIPCW() <= 0 {
		t.Fatal("geomean non-positive")
	}
	if res.WeightedIPCW() <= 0 {
		t.Fatal("weighted IPC/Watt non-positive")
	}
}

func TestInitialPlacementRespectsAffinity(t *testing.T) {
	ts := specs(t, 5, "gcc", "equake", "mcf")
	ts[0].Affinity = 1 << 1 // FP pool only
	sys, err := New(quadCores(), ts, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c := sys.CoreOfThread(0); c != 2 {
		t.Fatalf("FP-only thread placed on core %d, want 2", c)
	}
	// Greedy fill: threads 1 and 2 get cores 0 and 1.
	if sys.ThreadOnCore(0) != 1 || sys.ThreadOnCore(1) != 2 {
		t.Fatalf("greedy placement got %d,%d", sys.ThreadOnCore(0), sys.ThreadOnCore(1))
	}
}

func TestParkedThreadsArePowerGated(t *testing.T) {
	// 2 cores, 4 threads, no scheduler: the two surplus threads stay
	// parked, commit nothing, and draw no power.
	cores := quadCores()[:2]
	sys, err := New(cores, specs(t, 7, "gcc", "mcf", "equake", "apsi"), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunCycles(50_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if res.Threads[i].Committed != 0 || res.Threads[i].EnergyNJ != 0 {
			t.Fatalf("parked thread %d committed %d, energy %g",
				i, res.Threads[i].Committed, res.Threads[i].EnergyNJ)
		}
	}
	if res.WeightedIPCW() <= 0 {
		t.Fatal("bound threads produced nothing")
	}
	if res.GeomeanIPCW() != 0 {
		t.Fatal("geomean should be unusable with parked threads")
	}
}

func TestRotatePermutes(t *testing.T) {
	sys, err := New(quadCores(),
		specs(t, 20, "intstress", "gcc", "fpstress", "equake"),
		NewRotate(20_000), Config{ReassignOverheadCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.MustRun(80_000)
	if res.Reassigns == 0 {
		t.Fatal("rotate never fired")
	}
	// The binding stays consistent: each bound thread on one core.
	for c := 0; c < sys.NumCores(); c++ {
		th := sys.ThreadOnCore(c)
		if th >= 0 && sys.CoreOfThread(th) != c {
			t.Fatal("CoreOfThread inconsistent with ThreadOnCore")
		}
	}
}

func TestRotateTimeShares(t *testing.T) {
	// 2 cores, 5 threads: rotation must eventually give every thread
	// core time.
	cores := quadCores()[:2]
	sys, err := New(cores, specs(t, 31, "gcc", "mcf", "equake", "apsi", "CRC32"),
		NewRotate(5_000), Config{ReassignOverheadCycles: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunCycles(120_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Threads {
		if tr.Committed == 0 {
			t.Fatalf("thread %d starved under rotation", i)
		}
	}
}

func TestRotateZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval accepted")
		}
	}()
	NewRotate(0)
}

func TestRankConfigValidation(t *testing.T) {
	good := DefaultRankConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultRankConfig()
	bad.Quantum = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero quantum accepted")
	}
	bad = DefaultRankConfig()
	bad.HistoryDepth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero depth accepted")
	}
	bad = DefaultRankConfig()
	bad.MinScoreGap = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative gap accepted")
	}
}

func TestRankFixesMisplacedQuad(t *testing.T) {
	// Deliberately inverted placement: FP-heavy threads on the INT
	// cores and INT-heavy on the FP cores. Rank must reassign so the
	// INT cores run the INT-heavy threads.
	rank := NewRank(DefaultRankConfig())
	sys, err := New(quadCores(),
		specs(t, 30, "fpstress", "equake", "intstress", "bitcount"),
		rank, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.MustRun(150_000)
	if res.Reassigns == 0 {
		t.Fatal("rank never reassigned a fully inverted placement")
	}
	// Threads 2 (intstress) and 3 (bitcount) must own cores 0 and 1.
	onInt := map[int]bool{sys.ThreadOnCore(0): true, sys.ThreadOnCore(1): true}
	if !onInt[2] || !onInt[3] {
		t.Fatalf("INT cores run threads %v, want {2,3}", onInt)
	}
}

func TestRankStableWhenWellPlaced(t *testing.T) {
	rank := NewRank(DefaultRankConfig())
	sys, err := New(quadCores(),
		specs(t, 40, "intstress", "bitcount", "fpstress", "equake"),
		rank, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.MustRun(150_000)
	if res.Reassigns != 0 {
		t.Fatalf("rank churned %d times on a well-placed quad", res.Reassigns)
	}
}

func TestRankBeatsStaticOnInvertedQuad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	names := []string{"fpstress", "equake", "intstress", "bitcount"}
	run := func(s amp.MoveScheduler) Result {
		sys, err := New(quadCores(), specs(t, 50, names...), s, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return sys.MustRun(250_000)
	}
	static := run(Static{})
	rank := run(NewRank(DefaultRankConfig()))
	if rank.GeomeanIPCW() <= static.GeomeanIPCW()*1.05 {
		t.Fatalf("rank (%.4f) not clearly above misplaced static (%.4f)",
			rank.GeomeanIPCW(), static.GeomeanIPCW())
	}
}

func TestRankTimeSharesBacklog(t *testing.T) {
	// 4 cores, 6 threads: the two parked threads must get core time
	// through the round-robin sharing rule.
	cfg := DefaultRankConfig()
	cfg.ShareEpochs = 2
	sys, err := New(quadCores(),
		specs(t, 55, "intstress", "bitcount", "fpstress", "equake", "gcc", "swim"),
		NewRank(cfg), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunCycles(200_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Threads {
		if tr.Committed == 0 {
			t.Fatalf("thread %d starved (committed 0)", i)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		sys, err := New(quadCores(),
			specs(t, 70, "gcc", "apsi", "fpstress", "CRC32"),
			NewRank(DefaultRankConfig()), Config{})
		if err != nil {
			t.Fatal(err)
		}
		return sys.MustRun(80_000)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Reassigns != b.Reassigns {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Cycles, a.Reassigns, b.Cycles, b.Reassigns)
	}
	for i := range a.Threads {
		if a.Threads[i].EnergyNJ != b.Threads[i].EnergyNJ {
			t.Fatalf("thread %d energy differs", i)
		}
	}
}

func TestEightCoreScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cores := []CoreSpec{
		{Config: cpu.IntCoreConfig(), Pool: 0}, {Config: cpu.IntCoreConfig(), Pool: 0},
		{Config: cpu.IntCoreConfig(), Pool: 0}, {Config: cpu.IntCoreConfig(), Pool: 0},
		{Config: cpu.FPCoreConfig(), Pool: 1}, {Config: cpu.FPCoreConfig(), Pool: 1},
		{Config: cpu.FPCoreConfig(), Pool: 1}, {Config: cpu.FPCoreConfig(), Pool: 1},
	}
	names := []string{"fpstress", "equake", "swim", "ammp", "intstress", "bitcount", "sha", "CRC32"}
	rank := NewRank(DefaultRankConfig())
	sys, err := New(cores, specs(t, 80, names...), rank, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.MustRun(100_000)
	if res.Reassigns == 0 {
		t.Fatal("rank never reassigned an 8-core inverted placement")
	}
	// All four INT cores must hold INT-flavored threads (4..7).
	for c := 0; c < 4; c++ {
		if sys.ThreadOnCore(c) < 4 {
			t.Fatalf("INT core %d still runs FP thread %d", c, sys.ThreadOnCore(c))
		}
	}
}

func TestInvalidBatchRejectedWhole(t *testing.T) {
	// A scheduler emitting a duplicate-core batch must be ignored as a
	// unit and counted, not partially applied.
	bad := moveFunc(func(v amp.View) []amp.Move {
		if v.Cycle() == 0 {
			return nil
		}
		return []amp.Move{{Thread: 0, Core: 1}, {Thread: 1, Core: 1}}
	})
	sys, err := New(quadCores(), specs(t, 60, "gcc", "mcf", "equake", "apsi"),
		bad, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.MustRun(30_000)
	if res.Reassigns != 0 {
		t.Fatal("invalid batch applied")
	}
	if res.InvalidBatches == 0 {
		t.Fatal("invalid batches not counted")
	}
	if sys.ThreadOnCore(1) != 1 {
		t.Fatal("binding disturbed by invalid batch")
	}
}

func TestDuplicateThreadBatchIgnored(t *testing.T) {
	// A scheduler that names a full binding with one thread on two
	// cores, every tick from the start, must be ignored for the whole
	// run: no crash, no move, the initial binding intact.
	bad := moveFunc(func(v amp.View) []amp.Move {
		return []amp.Move{{Thread: 0, Core: 0}, {Thread: 0, Core: 1}, {Thread: 1, Core: 2}, {Thread: 2, Core: 3}}
	})
	sys, err := New(quadCores(), specs(t, 60, "gcc", "mcf", "equake", "apsi"),
		bad, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.MustRun(30_000)
	if res.Reassigns != 0 || sys.Moves() != 0 {
		t.Fatalf("reassigns %d moves %d, want 0 and 0", res.Reassigns, sys.Moves())
	}
	if res.InvalidBatches == 0 {
		t.Fatal("invalid batches not counted")
	}
	for c := 0; c < 4; c++ {
		if sys.ThreadOnCore(c) != c {
			t.Fatalf("core %d runs thread %d, want %d", c, sys.ThreadOnCore(c), c)
		}
	}
}

func TestReversalBatchAppliesAtomically(t *testing.T) {
	// A one-shot 4-move reversal is one batch: applied exactly once,
	// every move at once, leaving the exact reversed binding.
	fired := false
	rev := moveFunc(func(v amp.View) []amp.Move {
		if fired || v.Cycle() < 10_000 {
			return nil
		}
		fired = true
		return []amp.Move{{Thread: 3, Core: 0}, {Thread: 2, Core: 1}, {Thread: 1, Core: 2}, {Thread: 0, Core: 3}}
	})
	sys, err := New(quadCores(), specs(t, 61, "gcc", "mcf", "equake", "apsi"),
		rev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.MustRun(40_000)
	if res.Reassigns != 1 || sys.Moves() != 4 {
		t.Fatalf("reassigns %d moves %d, want 1 and 4", res.Reassigns, sys.Moves())
	}
	for c := 0; c < 4; c++ {
		if sys.ThreadOnCore(c) != 3-c {
			t.Fatalf("core %d runs thread %d, want %d", c, sys.ThreadOnCore(c), 3-c)
		}
	}
}

func TestAffinityViolatingMoveRejected(t *testing.T) {
	ts := specs(t, 65, "gcc", "mcf", "equake", "apsi")
	ts[0].Affinity = 1 << 0 // INT pool only
	bad := moveFunc(func(v amp.View) []amp.Move {
		if v.Cycle() == 0 {
			return nil
		}
		return []amp.Move{{Thread: 0, Core: 2}} // FP pool: violates affinity
	})
	sys, err := New(quadCores(), ts, bad, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.MustRun(30_000)
	if res.Reassigns != 0 {
		t.Fatal("affinity-violating move applied")
	}
	if res.InvalidBatches == 0 {
		t.Fatal("violation not counted")
	}
}

// moveFunc adapts a func to amp.MoveScheduler.
type moveFunc func(v amp.View) []amp.Move

func (moveFunc) Name() string                 { return "func" }
func (moveFunc) Reset(amp.View)               {}
func (f moveFunc) Tick(v amp.View) []amp.Move { return f(v) }
