package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// nsReportPct is the ns/op rise, in percent, past which a row is
// printed as slow. Wall time follows the host, so it never fails the
// gate; allocs/op, counted with the collector off, does.
const nsReportPct = 10

// parseSnapshot reads `go test -bench` text from r into a Snapshot.
// Every row takes the package of the `pkg:` header above it, so the
// output of one `go test` over several packages parses into one
// snapshot. Non-benchmark lines (PASS, ok, ...) pass through to
// passthrough so the snapshot never silently swallows a test failure.
func parseSnapshot(r io.Reader, passthrough io.Writer) (Snapshot, error) {
	var snap Snapshot
	pkg := ""
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
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				b.Package = pkg
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

// compareResult is the outcome of one baseline comparison: a report
// line per row, tagged FAIL, slow or ok, the rows that fail the gate
// and the rows past nsReportPct.
type compareResult struct {
	lines    []string
	failures int
	slow     int
}

// rowKey names a row across packages.
func rowKey(b Benchmark) string { return b.Package + "." + b.Name }

// compareSnapshots gates fresh against the committed baseline old. A
// row fails when its allocs/op rose at all, or by more than its
// AllocsSlack exemption: the snapshot exists to pin the hot paths'
// allocation counts. A baseline row the fresh run did not produce
// fails too: otherwise deleting or renaming a benchmark would drop it
// from the gate unnoticed, so such a change re-records the baseline.
// An ns/op rise past nsReportPct is reported and never fails. A row
// with no baseline is reported and never fails.
func compareSnapshots(old, fresh *Snapshot) compareResult {
	var res compareResult
	oldBy := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[rowKey(b)] = b
	}
	seen := make(map[string]bool, len(fresh.Benchmarks))
	for _, nb := range fresh.Benchmarks {
		key := rowKey(nb)
		seen[key] = true
		ob, ok := oldBy[key]
		if !ok {
			res.lines = append(res.lines, fmt.Sprintf("new  %s: %.1f ns/op, %d allocs/op (no baseline)",
				key, nb.NsPerOp, nb.AllocsPerOp))
			continue
		}
		pct := 0.0
		if ob.NsPerOp > 0 {
			pct = 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		}
		tag, note := "ok  ", ""
		if pct > nsReportPct {
			res.slow++
			tag = "slow"
		}
		if ob.AllocsSlack > 0 {
			note = fmt.Sprintf(" (exempt up to +%d)", ob.AllocsSlack)
		}
		if nb.AllocsPerOp > ob.AllocsPerOp+ob.AllocsSlack {
			res.failures++
			tag = "FAIL"
			if note == "" {
				note = " (any increase fails)"
			}
		}
		res.lines = append(res.lines, fmt.Sprintf("%s %s: %.1f -> %.1f ns/op (%+.1f%%), allocs/op %d -> %d%s",
			tag, key, ob.NsPerOp, nb.NsPerOp, pct, ob.AllocsPerOp, nb.AllocsPerOp, note))
	}
	for _, ob := range old.Benchmarks {
		if key := rowKey(ob); !seen[key] {
			res.failures++
			res.lines = append(res.lines, fmt.Sprintf("FAIL %s: in baseline but not in this run (re-record the baseline)", key))
		}
	}
	return res
}
