package main

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// parseSnapshot reads `go test -bench` text from r into a Snapshot.
// Non-benchmark lines (PASS, ok, ...) pass through to passthrough so
// the snapshot never silently swallows a test failure.
func parseSnapshot(r io.Reader, passthrough io.Writer) (Snapshot, error) {
	var snap Snapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			snap.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				snap.Benchmarks = append(snap.Benchmarks, b)
			} else {
				fmt.Fprintln(passthrough, line)
			}
		default:
			if line != "" {
				fmt.Fprintln(passthrough, line)
			}
		}
	}
	return snap, sc.Err()
}

// compareResult is the outcome of one baseline comparison: the
// per-benchmark report lines plus how many regressed past a gate.
// hard counts the subset of failures on benchmarks matching the
// -hard-allocs pattern that are allocs/op increases or missing rows;
// CI fails on those even where it tolerates ordinary
// (machine-variance-prone) ns/op drift.
type compareResult struct {
	lines    []string
	failures int
	hard     int
}

// compareSnapshots gates fresh against the committed baseline old. A
// benchmark fails when its ns/op grew more than thresholdPct percent,
// or when its allocs/op increased at all (the snapshot exists to pin
// the hot-path zero-alloc guarantees, so any increase is a
// regression). A baseline benchmark the fresh run did not produce
// fails too: otherwise deleting or renaming a gated row would drop it
// from the gate unnoticed, so such a change re-records the baseline.
// An allocs/op increase or a missing row on a benchmark matching
// hardAllocs (nil = none) is additionally counted as a hard failure.
// A benchmark with no baseline row is reported and never fails.
func compareSnapshots(old, fresh *Snapshot, thresholdPct float64, hardAllocs *regexp.Regexp) compareResult {
	var res compareResult
	oldBy := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	seen := make(map[string]bool, len(fresh.Benchmarks))
	for _, nb := range fresh.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			res.lines = append(res.lines,
				fmt.Sprintf("new  %s: %.1f ns/op (no baseline)", nb.Name, nb.NsPerOp))
			continue
		}
		failed := false
		if ob.NsPerOp > 0 {
			pct := 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
			if pct > thresholdPct {
				failed = true
				res.failures++
				res.lines = append(res.lines,
					fmt.Sprintf("FAIL %s: %.1f -> %.1f ns/op (%+.1f%%, gate +%.1f%%)",
						nb.Name, ob.NsPerOp, nb.NsPerOp, pct, thresholdPct))
			}
		}
		if nb.AllocsPerOp > ob.AllocsPerOp {
			failed = true
			res.failures++
			tag := "FAIL"
			if hardAllocs != nil && hardAllocs.MatchString(nb.Name) {
				res.hard++
				tag = "HARD"
			}
			res.lines = append(res.lines,
				fmt.Sprintf("%s %s: allocs/op %d -> %d (any increase fails)",
					tag, nb.Name, ob.AllocsPerOp, nb.AllocsPerOp))
		}
		if !failed {
			pct := 0.0
			if ob.NsPerOp > 0 {
				pct = 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
			}
			res.lines = append(res.lines,
				fmt.Sprintf("ok   %s: %.1f -> %.1f ns/op (%+.1f%%)",
					nb.Name, ob.NsPerOp, nb.NsPerOp, pct))
		}
	}
	for _, ob := range old.Benchmarks {
		if seen[ob.Name] {
			continue
		}
		res.failures++
		tag := "FAIL"
		if hardAllocs != nil && hardAllocs.MatchString(ob.Name) {
			res.hard++
			tag = "HARD"
		}
		res.lines = append(res.lines,
			fmt.Sprintf("%s %s: in baseline but not in this run (re-record the baseline)", tag, ob.Name))
	}
	return res
}
