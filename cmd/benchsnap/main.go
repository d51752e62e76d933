// Command benchsnap converts `go test -bench -benchmem` output on
// stdin into a machine-readable JSON snapshot, so microbenchmark
// baselines can be committed and diffed, and gates a fresh run against
// one. The Makefile's bench-snapshot target records BENCH_micro.json
// and bench-check compares against it:
//
//	go test -run NONE -bench . -benchmem ./... | benchsnap -o BENCH_micro.json
//	go test -run NONE -bench . -benchmem ./... | benchsnap -compare BENCH_micro.json
//
// Each row carries the package it ran in, so one snapshot holds the
// rows of several packages. The gate's policy is fixed (see
// compareSnapshots). Non-benchmark lines (PASS, ok, ...) pass through
// to stderr so the snapshot never silently swallows a test failure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Package    string  `json:"pkg"`
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// -benchmem metrics; an explicit 0 is the hot-path guarantee the
	// snapshot exists to record, so these are never omitted.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`

	// Extra holds custom -benchmem style metrics (pct_vs_hpe, ...).
	Extra map[string]float64 `json:"extra,omitempty"`

	// AllocsSlack exempts a row whose allocs/op does not repeat from
	// the any-increase rule: the gate fails it only past this rise.
	// Set by hand in the baseline; a re-record keeps it.
	AllocsSlack int64 `json:"allocs_slack,omitempty"`
}

// Snapshot is the file's top-level shape. GoVersion is the toolchain
// that ran the benchmarks: rows that call into the standard library
// (net/http in the cluster rows) take their allocs/op from it.
type Snapshot struct {
	GoVersion  string      `json:"go,omitempty"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command with its streams passed in; it returns the exit
// status: 1 when the gate fails or the input is unusable, else 0.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("benchsnap", flag.ContinueOnError)
	flags.SetOutput(stderr)
	out := flags.String("o", "", "output file (default stdout)")
	compareWith := flags.String("compare", "", "compare fresh -bench output on stdin against this snapshot; exit 1 on an allocs/op increase or a missing row")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchsnap:", err)
		return 1
	}

	snap, err := parseSnapshot(stdin, stderr)
	if err != nil {
		return fail(err)
	}
	if len(snap.Benchmarks) == 0 {
		return fail(fmt.Errorf("no benchmark lines on stdin"))
	}
	// benchsnap runs under the toolchain that ran the benchmarks
	// (`go run` in the same pipeline).
	snap.GoVersion = runtime.Version()

	if *compareWith != "" {
		old, err := readSnapshot(*compareWith)
		if err != nil {
			return fail(err)
		}
		if old.GoVersion != snap.GoVersion {
			fmt.Fprintf(stdout, "note: %s was recorded with %s, this run is %s; rows that allocate in the standard library may differ\n",
				*compareWith, old.GoVersion, snap.GoVersion)
		}
		res := compareSnapshots(&old, &snap)
		for _, l := range res.lines {
			fmt.Fprintln(stdout, l)
		}
		if res.slow > 0 {
			fmt.Fprintf(stderr, "benchsnap: %d row(s) past +%d%% ns/op vs %s (reported, never fails)\n", res.slow, nsReportPct, *compareWith)
		}
		if res.failures > 0 {
			return fail(fmt.Errorf("%d allocs/op increase(s) or missing row(s) vs %s", res.failures, *compareWith))
		}
		fmt.Fprintf(stderr, "benchsnap: no allocs/op increase or missing row vs %s\n", *compareWith)
		return 0
	}

	if *out != "" {
		// A re-record keeps each row's exemption.
		prev, err := readSnapshot(*out)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fail(err)
		}
		slack := make(map[string]int64)
		for _, b := range prev.Benchmarks {
			slack[rowKey(b)] = b.AllocsSlack
		}
		for i := range snap.Benchmarks {
			snap.Benchmarks[i].AllocsSlack = slack[rowKey(snap.Benchmarks[i])]
		}
	}

	enc, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return fail(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		if _, err := stdout.Write(enc); err != nil {
			return fail(err)
		}
		return 0
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "benchsnap: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
	return 0
}

// readSnapshot loads a committed snapshot.
func readSnapshot(path string) (Snapshot, error) {
	var snap Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("parsing %s: %w", path, err)
	}
	return snap, nil
}

// parseLine parses one result line:
//
//	BenchmarkFoo-8   123  456.7 ns/op  0 B/op  0 allocs/op  1.2 pct_vs_hpe
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	// The rest is (value, unit) couples.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = v
		}
	}
	return b, true
}
