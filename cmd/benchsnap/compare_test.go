package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
)

func bench(name string, ns float64, allocs int64) Benchmark {
	return Benchmark{Name: name, Iterations: 100, NsPerOp: ns, AllocsPerOp: allocs}
}

func countFail(lines []string) int {
	n := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "FAIL") {
			n++
		}
	}
	return n
}

func TestCompareNoRegression(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 105, 0)}}
	res := compareSnapshots(old, fresh, 10, nil)
	if res.failures != 0 {
		t.Fatalf("+5%% within a +10%% gate must pass, got %d failures: %v", res.failures, res.lines)
	}
	// A speedup of any size passes too.
	fresh.Benchmarks[0].NsPerOp = 10
	if res := compareSnapshots(old, fresh, 10, nil); res.failures != 0 {
		t.Fatalf("speedup must pass, got %v", res.lines)
	}
}

func TestCompareNsRegression(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 111, 0)}}
	res := compareSnapshots(old, fresh, 10, nil)
	if res.failures != 1 || countFail(res.lines) != 1 {
		t.Fatalf("+11%% past a +10%% gate must fail once, got %d failures: %v", res.failures, res.lines)
	}
	// A looser gate lets the same delta through.
	if res := compareSnapshots(old, fresh, 20, nil); res.failures != 0 {
		t.Fatalf("+11%% within a +20%% gate must pass, got %v", res.lines)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 1)}}
	res := compareSnapshots(old, fresh, 10, nil)
	if res.failures != 1 {
		t.Fatalf("any allocs/op increase must fail, got %d failures: %v", res.failures, res.lines)
	}
}

func TestCompareBothRegressions(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 2)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 200, 3)}}
	res := compareSnapshots(old, fresh, 10, nil)
	if res.failures != 2 {
		t.Fatalf("ns/op and allocs/op regressions count separately, got %d: %v", res.failures, res.lines)
	}
}

func TestCompareHardAllocsSplit(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEnginePairSweepInterval", 100, 2),
		bench("BenchmarkEnginePairSweepDetailed", 100, 2),
	}}
	fresh := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEnginePairSweepInterval", 150, 3),
		bench("BenchmarkEnginePairSweepDetailed", 150, 3),
	}}
	res := compareSnapshots(old, fresh, 10, regexp.MustCompile("Interval"))
	// Four failures total (ns+allocs on both rows) but only the
	// interval row's allocs increase is hard.
	if res.failures != 4 {
		t.Fatalf("want 4 failures, got %d: %v", res.failures, res.lines)
	}
	if res.hard != 1 {
		t.Fatalf("want 1 hard failure (interval allocs), got %d: %v", res.hard, res.lines)
	}
	var sawHard bool
	for _, l := range res.lines {
		sawHard = sawHard || strings.HasPrefix(l, "HARD BenchmarkEnginePairSweepInterval: allocs/op")
	}
	if !sawHard {
		t.Fatalf("missing HARD line for the interval allocs regression: %v", res.lines)
	}
	// ns/op drift alone on a matching row stays soft.
	fresh.Benchmarks[0].AllocsPerOp = 2
	fresh.Benchmarks[1].AllocsPerOp = 2
	if res := compareSnapshots(old, fresh, 10, regexp.MustCompile("Interval")); res.hard != 0 {
		t.Fatalf("ns/op drift must not hard-fail, got %d hard: %v", res.hard, res.lines)
	}
}

func TestCompareNewAndGone(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkGone", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkNew", 100, 5)}}
	res := compareSnapshots(old, fresh, 10, nil)
	// A new row has no baseline to regress from; a row the fresh run
	// lost would leave the gate unnoticed.
	if res.failures != 1 || res.hard != 0 {
		t.Fatalf("want 1 soft failure (the gone row), got %d failures, %d hard: %v", res.failures, res.hard, res.lines)
	}
	var sawNew, sawGone bool
	for _, l := range res.lines {
		sawNew = sawNew || strings.HasPrefix(l, "new  BenchmarkNew")
		sawGone = sawGone || strings.HasPrefix(l, "FAIL BenchmarkGone: in baseline but not in this run")
	}
	if !sawNew || !sawGone {
		t.Fatalf("missing new/gone report lines: %v", res.lines)
	}
}

// TestCompareGoneRowHard: a missing row matching -hard-allocs is a hard
// failure, so deleting a hard-gated benchmark fails CI until the
// baseline is re-recorded without it.
func TestCompareGoneRowHard(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEngineBatchSweepInterval", 100, 28),
		bench("BenchmarkEngineBatchSweepSampled", 100, 600),
		bench("BenchmarkEnginePairSweepInterval", 100, 28),
	}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkEnginePairSweepInterval", 100, 28)}}
	res := compareSnapshots(old, fresh, 10, regexp.MustCompile("Interval"))
	if res.failures != 2 || res.hard != 1 {
		t.Fatalf("want 2 failures, 1 hard, got %d, %d: %v", res.failures, res.hard, res.lines)
	}
	var sawHard bool
	for _, l := range res.lines {
		sawHard = sawHard || strings.HasPrefix(l, "HARD BenchmarkEngineBatchSweepInterval: in baseline but not in this run")
	}
	if !sawHard {
		t.Fatalf("missing HARD line for the gone interval row: %v", res.lines)
	}
	// The same rows all present pass.
	if res := compareSnapshots(old, old, 10, regexp.MustCompile("Interval")); res.failures != 0 {
		t.Fatalf("identical snapshots must pass, got %v", res.lines)
	}
}

func TestParseSnapshot(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: ampsched
cpu: Test CPU
BenchmarkCoreSimulation-8   	     100	  12345.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkWithExtra-8        	      50	    200.0 ns/op	      16 B/op	       2 allocs/op	       1.5 pct_vs_hpe
PASS
ok  	ampsched	1.234s
`
	snap, err := parseSnapshot(strings.NewReader(in), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOOS != "linux" || snap.Package != "ampsched" {
		t.Fatalf("header mis-parsed: %+v", snap)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %+v", snap.Benchmarks)
	}
	b := snap.Benchmarks[0]
	if b.Name != "BenchmarkCoreSimulation" || b.NsPerOp != 12345.6 || b.AllocsPerOp != 0 {
		t.Fatalf("first benchmark mis-parsed: %+v", b)
	}
	if got := snap.Benchmarks[1].Extra["pct_vs_hpe"]; got != 1.5 {
		t.Fatalf("extra metric mis-parsed: %+v", snap.Benchmarks[1])
	}
}
