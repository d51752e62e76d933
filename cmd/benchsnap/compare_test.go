package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func bench(name string, ns float64, allocs int64) Benchmark {
	return Benchmark{Package: "ampsched", Name: name, Iterations: 100, NsPerOp: ns, AllocsPerOp: allocs}
}

func inPkg(pkg string, b Benchmark) Benchmark {
	b.Package = pkg
	return b
}

// hasLine reports whether some report line starts with prefix and
// contains detail.
func hasLine(lines []string, prefix, detail string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) && strings.Contains(l, detail) {
			return true
		}
	}
	return false
}

func TestCompareNoRegression(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 105, 0)}}
	res := compareSnapshots(old, fresh)
	if res.failures != 0 || res.slow != 0 || !hasLine(res.lines, "ok   ampsched.BenchmarkA: 100.0 -> 105.0 ns/op (+5.0%), allocs/op 0 -> 0", "") {
		t.Fatalf("+5%% ns/op must read ok, got %d failures, %d slow: %v", res.failures, res.slow, res.lines)
	}
	// A speedup of any size, and fewer allocations, pass too.
	fresh.Benchmarks[0].NsPerOp = 10
	old.Benchmarks[0].AllocsPerOp = 3
	if res := compareSnapshots(old, fresh); res.failures != 0 || res.slow != 0 {
		t.Fatalf("speedup must pass, got %v", res.lines)
	}
}

// TestCompareNsRegression: ns/op past +10% is printed as slow, on
// every row and at any size, and never counts as a failure.
func TestCompareNsRegression(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEngineRunLoopHPEInterval", 100, 20),
		inPkg("ampsched/internal/manycore", bench("BenchmarkManycoreEpoch/rank/64x512", 100, 0)),
	}}
	fresh := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEngineRunLoopHPEInterval", 111, 20),
		inPkg("ampsched/internal/manycore", bench("BenchmarkManycoreEpoch/rank/64x512", 1000, 0)),
	}}
	res := compareSnapshots(old, fresh)
	if res.failures != 0 {
		t.Fatalf("ns/op must never fail, got %d failures: %v", res.failures, res.lines)
	}
	if res.slow != 2 ||
		!hasLine(res.lines, "slow ampsched.BenchmarkEngineRunLoopHPEInterval: 100.0 -> 111.0 ns/op (+11.0%)", "") ||
		!hasLine(res.lines, "slow ampsched/internal/manycore.BenchmarkManycoreEpoch/rank/64x512: 100.0 -> 1000.0 ns/op (+900.0%)", "") {
		t.Fatalf("both rows past +10%% must be printed as slow, got %d: %v", res.slow, res.lines)
	}
	// +10% exactly is not past the line.
	fresh.Benchmarks[0].NsPerOp = 110
	if res := compareSnapshots(old, fresh); res.slow != 1 {
		t.Fatalf("+10%% must read ok, got %d slow: %v", res.slow, res.lines)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 1)}}
	res := compareSnapshots(old, fresh)
	if res.failures != 1 || !hasLine(res.lines, "FAIL ampsched.BenchmarkA:", "allocs/op 0 -> 1 (any increase fails)") {
		t.Fatalf("any allocs/op increase must fail, got %d failures: %v", res.failures, res.lines)
	}
}

func TestCompareBothRegressions(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 100, 2)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkA", 200, 3)}}
	res := compareSnapshots(old, fresh)
	if res.failures != 1 || res.slow != 1 || len(res.lines) != 1 ||
		!hasLine(res.lines, "FAIL ampsched.BenchmarkA: 100.0 -> 200.0 ns/op (+100.0%)", "allocs/op 2 -> 3 (any increase fails)") {
		t.Fatalf("want one FAIL line: the allocs/op rise fails and the ns/op rise is reported, got %d failures, %d slow: %v",
			res.failures, res.slow, res.lines)
	}
}

// TestCompareHardAllocsSplit: the hard/soft split is by metric, not by
// row. An allocs/op increase fails on every row, whatever its package
// or fidelity, and ns/op drift alone fails on none.
func TestCompareHardAllocsSplit(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEnginePairSweepInterval", 100, 28),
		bench("BenchmarkEnginePairSweepDetailed", 100, 544),
		inPkg("ampsched/internal/pairstore", bench("BenchmarkServerCacheKey", 100, 4)),
		inPkg("ampsched/internal/cluster", bench("BenchmarkClusterRingOwner", 100, 1)),
	}}
	fresh := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEnginePairSweepInterval", 150, 29),
		bench("BenchmarkEnginePairSweepDetailed", 150, 545),
		inPkg("ampsched/internal/pairstore", bench("BenchmarkServerCacheKey", 150, 5)),
		inPkg("ampsched/internal/cluster", bench("BenchmarkClusterRingOwner", 150, 2)),
	}}
	res := compareSnapshots(old, fresh)
	if res.failures != 4 {
		t.Fatalf("want 4 failures, one allocs/op increase per row, got %d: %v", res.failures, res.lines)
	}
	for _, want := range []string{
		"FAIL ampsched.BenchmarkEnginePairSweepInterval: 100.0 -> 150.0 ns/op (+50.0%), allocs/op 28 -> 29",
		"FAIL ampsched.BenchmarkEnginePairSweepDetailed: 100.0 -> 150.0 ns/op (+50.0%), allocs/op 544 -> 545",
		"FAIL ampsched/internal/pairstore.BenchmarkServerCacheKey: 100.0 -> 150.0 ns/op (+50.0%), allocs/op 4 -> 5",
		"FAIL ampsched/internal/cluster.BenchmarkClusterRingOwner: 100.0 -> 150.0 ns/op (+50.0%), allocs/op 1 -> 2",
	} {
		if !hasLine(res.lines, want, "") {
			t.Fatalf("missing %q: %v", want, res.lines)
		}
	}
	// ns/op drift alone fails no row.
	for i := range fresh.Benchmarks {
		fresh.Benchmarks[i].AllocsPerOp = old.Benchmarks[i].AllocsPerOp
	}
	if res := compareSnapshots(old, fresh); res.failures != 0 || res.slow != 4 {
		t.Fatalf("ns/op drift must be reported on every row and fail none, got %d failures, %d slow: %v",
			res.failures, res.slow, res.lines)
	}
}

func TestCompareNewAndGone(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkGone", 100, 0)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{bench("BenchmarkNew", 100, 5)}}
	res := compareSnapshots(old, fresh)
	// A new row has no baseline to regress from; a row the fresh run
	// lost would leave the gate unnoticed.
	if res.failures != 1 {
		t.Fatalf("want 1 failure (the gone row), got %d: %v", res.failures, res.lines)
	}
	if !hasLine(res.lines, "new  ampsched.BenchmarkNew", "") ||
		!hasLine(res.lines, "FAIL ampsched.BenchmarkGone: in baseline but not in this run", "") {
		t.Fatalf("missing new/gone report lines: %v", res.lines)
	}
}

// TestCompareGoneRowHard: every baseline row the run no longer
// produces fails, in any package, so deleting or renaming a benchmark
// fails the gate until the baseline is re-recorded without it. A row
// is named by its package too: the same name run in another package
// is a different row.
func TestCompareGoneRowHard(t *testing.T) {
	old := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEngineRunLoopHPEInterval", 100, 20),
		bench("BenchmarkEngineRunLoopHPESampled", 100, 62),
		inPkg("ampsched/internal/jobqueue", bench("BenchmarkQueueSubmitComplete", 100, 4)),
	}}
	fresh := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEngineRunLoopHPESampled", 100, 62),
		inPkg("ampsched/internal/pairstore", bench("BenchmarkQueueSubmitComplete", 100, 4)),
	}}
	res := compareSnapshots(old, fresh)
	if res.failures != 2 {
		t.Fatalf("want 2 failures, one per gone row, got %d: %v", res.failures, res.lines)
	}
	for _, want := range []string{
		"FAIL ampsched.BenchmarkEngineRunLoopHPEInterval: in baseline but not in this run",
		"FAIL ampsched/internal/jobqueue.BenchmarkQueueSubmitComplete: in baseline but not in this run",
		"new  ampsched/internal/pairstore.BenchmarkQueueSubmitComplete",
	} {
		if !hasLine(res.lines, want, "") {
			t.Fatalf("missing %q: %v", want, res.lines)
		}
	}
	// The same rows all present pass.
	if res := compareSnapshots(old, old); res.failures != 0 {
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
	if snap.GOOS != "linux" || snap.CPU != "Test CPU" {
		t.Fatalf("header mis-parsed: %+v", snap)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %+v", snap.Benchmarks)
	}
	b := snap.Benchmarks[0]
	if b.Package != "ampsched" || b.Name != "BenchmarkCoreSimulation" || b.NsPerOp != 12345.6 || b.AllocsPerOp != 0 {
		t.Fatalf("first benchmark mis-parsed: %+v", b)
	}
	if got := snap.Benchmarks[1].Extra["pct_vs_hpe"]; got != 1.5 {
		t.Fatalf("extra metric mis-parsed: %+v", snap.Benchmarks[1])
	}
}

// multiPkgRun is `go test -bench` output over three packages, one
// benchmark name appearing in two of them.
const multiPkgRun = `goos: linux
goarch: amd64
pkg: ampsched
cpu: Test CPU
BenchmarkEngineSoloInterval-2   	    5000	    180000 ns/op	    2360 B/op	       7 allocs/op
BenchmarkShared-2               	     100	      1000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	ampsched	3.210s
goos: linux
goarch: amd64
pkg: ampsched/internal/manycore
cpu: Test CPU
BenchmarkManycoreEpoch/rank/64x512-2         	  200000	      7000 ns/op	       0 B/op	       0 allocs/op
BenchmarkShared-2                            	     100	      2000 ns/op	      64 B/op	       1 allocs/op
PASS
ok  	ampsched/internal/manycore	2.000s
goos: linux
goarch: amd64
pkg: ampsched/internal/cluster
cpu: Test CPU
BenchmarkClusterRingOwner-2   	 2000000	       500 ns/op	      64 B/op	       1 allocs/op
PASS
ok  	ampsched/internal/cluster	1.000s
`

// TestParseSnapshotPackages: one input with several pkg: blocks parses
// into one snapshot whose rows each keep their own package.
func TestParseSnapshotPackages(t *testing.T) {
	snap, err := parseSnapshot(strings.NewReader(multiPkgRun), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ pkg, name string }{
		{"ampsched", "BenchmarkEngineSoloInterval"},
		{"ampsched", "BenchmarkShared"},
		{"ampsched/internal/manycore", "BenchmarkManycoreEpoch/rank/64x512"},
		{"ampsched/internal/manycore", "BenchmarkShared"},
		{"ampsched/internal/cluster", "BenchmarkClusterRingOwner"},
	}
	if len(snap.Benchmarks) != len(want) {
		t.Fatalf("want %d rows, got %+v", len(want), snap.Benchmarks)
	}
	for i, w := range want {
		if b := snap.Benchmarks[i]; b.Package != w.pkg || b.Name != w.name {
			t.Fatalf("row %d: got %s.%s, want %s.%s", i, b.Package, b.Name, w.pkg, w.name)
		}
	}
	// The two BenchmarkShared rows stay apart: each is compared with
	// its own baseline.
	if res := compareSnapshots(&snap, &snap); res.failures != 0 || len(res.lines) != len(want) {
		t.Fatalf("a snapshot against itself must pass with one line per row, got %v", res.lines)
	}
}

// runCompare runs benchsnap -compare against base with fresh as stdin
// and returns its exit status and stdout.
func runCompare(t *testing.T, base Snapshot, fresh string) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_micro.json")
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	code := run([]string{"-compare", path}, strings.NewReader(fresh), &stdout, io.Discard)
	return code, stdout.String()
}

// TestRunExitStatus pins the exit status to the policy: an allocs/op
// increase or a missing row exits 1, ns/op past +10% exits 0.
func TestRunExitStatus(t *testing.T) {
	base, err := parseSnapshot(strings.NewReader(multiPkgRun), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	base.GoVersion = runtime.Version()
	if code, out := runCompare(t, base, multiPkgRun); code != 0 || strings.Contains(out, "note:") {
		t.Fatalf("an unchanged run must exit 0 without a version note, got %d:\n%s", code, out)
	}

	slower := strings.Replace(multiPkgRun, "7000 ns/op", "70000 ns/op", 1)
	if code, out := runCompare(t, base, slower); code != 0 || !strings.Contains(out, "slow ampsched/internal/manycore.BenchmarkManycoreEpoch/rank/64x512") {
		t.Fatalf("a 10x ns/op rise must be printed and exit 0, got %d:\n%s", code, out)
	}

	moreAllocs := strings.Replace(multiPkgRun, "64 B/op	       1 allocs/op\nPASS\nok  	ampsched/internal/cluster",
		"80 B/op	       2 allocs/op\nPASS\nok  	ampsched/internal/cluster", 1)
	if moreAllocs == multiPkgRun {
		t.Fatal("test input edit did not apply")
	}
	if code, out := runCompare(t, base, moreAllocs); code != 1 || !strings.Contains(out, "FAIL ampsched/internal/cluster.BenchmarkClusterRingOwner: 500.0 -> 500.0 ns/op (+0.0%), allocs/op 1 -> 2") {
		t.Fatalf("one more allocation must exit 1, got %d:\n%s", code, out)
	}

	renamed := strings.Replace(multiPkgRun, "BenchmarkEngineSoloInterval-2", "BenchmarkEngineSoloIntervalX-2", 1)
	if code, out := runCompare(t, base, renamed); code != 1 || !strings.Contains(out, "FAIL ampsched.BenchmarkEngineSoloInterval: in baseline but not in this run") {
		t.Fatalf("a renamed row must exit 1, got %d:\n%s", code, out)
	}

	// A baseline from another toolchain is named next to this one.
	base.GoVersion = "go1.0"
	if code, out := runCompare(t, base, multiPkgRun); code != 0 || !strings.Contains(out, "recorded with go1.0, this run is "+runtime.Version()) {
		t.Fatalf("want a version note and exit 0, got %d:\n%s", code, out)
	}
}

// TestCompareAllocsSlack: a row's exemption lets its allocs/op rise up
// to its slack and no further, and covers that row alone.
func TestCompareAllocsSlack(t *testing.T) {
	exempt := bench("BenchmarkEnginePairSweepDetailed", 100, 544)
	exempt.AllocsSlack = 11
	old := &Snapshot{Benchmarks: []Benchmark{exempt, bench("BenchmarkEnginePairSweepSampled", 100, 662)}}
	fresh := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkEnginePairSweepDetailed", 100, 555),
		bench("BenchmarkEnginePairSweepSampled", 100, 663),
	}}
	res := compareSnapshots(old, fresh)
	if res.failures != 1 ||
		!hasLine(res.lines, "ok   ampsched.BenchmarkEnginePairSweepDetailed: 100.0 -> 100.0 ns/op (+0.0%), allocs/op 544 -> 555 (exempt up to +11)", "") ||
		!hasLine(res.lines, "FAIL ampsched.BenchmarkEnginePairSweepSampled:", "allocs/op 662 -> 663 (any increase fails)") {
		t.Fatalf("want the exempt row ok at +11 and the other row failing at +1, got %d failures: %v", res.failures, res.lines)
	}
	fresh.Benchmarks[0].AllocsPerOp = 556
	fresh.Benchmarks[1].AllocsPerOp = 662
	if res := compareSnapshots(old, fresh); res.failures != 1 ||
		!hasLine(res.lines, "FAIL ampsched.BenchmarkEnginePairSweepDetailed:", "allocs/op 544 -> 556 (exempt up to +11)") {
		t.Fatalf("+12 past a slack of 11 must fail, got %v", res.lines)
	}
}

// TestSnapshotKeepsSlack: re-recording over a baseline keeps each
// row's exemption, and recording a new file sets none.
func TestSnapshotKeepsSlack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_micro.json")
	if code := run([]string{"-o", path}, strings.NewReader(multiPkgRun), io.Discard, io.Discard); code != 0 {
		t.Fatalf("recording a new file exited %d", code)
	}
	snap, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range snap.Benchmarks {
		if b.AllocsSlack != 0 {
			t.Fatalf("a new file carries an exemption: %+v", b)
		}
	}
	snap.Benchmarks[2].AllocsSlack = 3 // ampsched/internal/manycore.BenchmarkManycoreEpoch/rank/64x512
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-o", path}, strings.NewReader(multiPkgRun), io.Discard, io.Discard); code != 0 {
		t.Fatalf("re-recording exited %d", code)
	}
	if snap, err = readSnapshot(path); err != nil {
		t.Fatal(err)
	}
	for i, b := range snap.Benchmarks {
		want := int64(0)
		if i == 2 {
			want = 3
		}
		if b.AllocsSlack != want {
			t.Fatalf("row %d %s.%s: slack %d after re-record, want %d", i, b.Package, b.Name, b.AllocsSlack, want)
		}
	}
}
