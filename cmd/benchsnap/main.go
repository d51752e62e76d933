// Command benchsnap converts `go test -bench -benchmem` output on
// stdin into a machine-readable JSON snapshot, so benchmark baselines
// can be committed and diffed (see the Makefile's bench-snapshot
// target).
//
//	go test -run NONE -bench . -benchmem . | benchsnap -o BENCH.json
//
// Non-benchmark lines (PASS, ok, goos, ...) pass through to stderr so
// the snapshot never silently swallows a test failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// -benchmem metrics; an explicit 0 is the hot-path guarantee the
	// snapshot exists to record, so these are never omitted.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`

	// Extra holds custom -benchmem style metrics (pct_vs_hpe, ...).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is the file's top-level shape.
type Snapshot struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compareWith := flag.String("compare", "", "compare fresh -bench output on stdin against this snapshot; exit 1 on regression")
	threshold := flag.Float64("threshold", 10, "ns/op regression gate in percent (compare mode); allocs/op may never increase")
	hardAllocs := flag.String("hard-allocs", "", "regexp of benchmark names whose allocs/op increases or missing rows hard-fail; every other regression is reported but exits 0 (CI soft/hard split)")
	flag.Parse()

	snap, err := parseSnapshot(os.Stdin, os.Stderr)
	if err != nil {
		fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}

	if *compareWith != "" {
		data, err := os.ReadFile(*compareWith)
		if err != nil {
			fatal(err)
		}
		var old Snapshot
		if err := json.Unmarshal(data, &old); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *compareWith, err))
		}
		var hardRe *regexp.Regexp
		if *hardAllocs != "" {
			hardRe, err = regexp.Compile(*hardAllocs)
			if err != nil {
				fatal(fmt.Errorf("bad -hard-allocs pattern: %w", err))
			}
		}
		res := compareSnapshots(&old, &snap, *threshold, hardRe)
		for _, l := range res.lines {
			fmt.Println(l)
		}
		if hardRe != nil {
			// Soft/hard split: only allocs/op increases and missing
			// rows matching -hard-allocs gate the exit status;
			// everything else is advisory (CI shows it, the job stays
			// green).
			if res.hard > 0 {
				fatal(fmt.Errorf("%d hard allocs/op regression(s) or missing row(s) vs %s (pattern %q)", res.hard, *compareWith, *hardAllocs))
			}
			if res.failures > 0 {
				fmt.Fprintf(os.Stderr, "benchsnap: %d soft regression(s) vs %s (advisory; no hard failures)\n", res.failures, *compareWith)
			} else {
				fmt.Fprintf(os.Stderr, "benchsnap: no regressions vs %s\n", *compareWith)
			}
			return
		}
		if res.failures > 0 {
			fatal(fmt.Errorf("%d regression(s) vs %s", res.failures, *compareWith))
		}
		fmt.Fprintf(os.Stderr, "benchsnap: no regressions vs %s\n", *compareWith)
		return
	}

	enc, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsnap:", err)
	os.Exit(1)
}
