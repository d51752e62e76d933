// Command ampvet runs ampsched's custom static-analysis suite (see
// internal/analysis) over the repository: determinism, hotpathalloc,
// obserrcheck, lockcheck, unitcheck and ctxcheck.
//
// Usage:
//
//	ampvet [flags] [packages]
//
// Packages default to ./... . Findings print one per line as
// file:line:col: [check] message, or as a JSON array with -json (each
// entry carries file/line/column/check/message/pkg). The exit status
// is 1 when there are findings, 2 on a loading or internal error, 0 on
// a clean tree.
//
// -checks narrows the suite to an explicit list
// (-checks determinism,obserrcheck). Only a full-suite run reports
// stale //ampvet:allow directives: a narrowed run cannot tell an allow
// that suppresses nothing from one whose check did not run.
//
// Each run lists, loads and analyzes the packages afresh, under one
// summary layer that spans them all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ampsched/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("ampvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	checks := fs.String("checks", "", "comma-separated checks to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ampvet [flags] [packages]\n\nChecks:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analysis.All()
	if *checks != "" {
		var err error
		suite, err = analysis.ByName(*checks)
		if err != nil {
			fmt.Fprintln(stderr, "ampvet:", err)
			return 2
		}
	}
	if len(suite) == 0 {
		fmt.Fprintln(stderr, "ampvet: no checks enabled")
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.NewLoader(".").Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "ampvet:", err)
		return 2
	}
	typeErrs := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "ampvet: type error in %s: %v\n", pkg.Path, terr)
			typeErrs++
		}
	}
	if typeErrs > 0 {
		return 2
	}
	diags, err := analysis.RunSuite(pkgs, suite)
	if err != nil {
		fmt.Fprintln(stderr, "ampvet:", err)
		return 2
	}

	// Emit paths relative to the working directory so editor links and
	// the CI problem matcher's PR-diff annotations both resolve against
	// the repo root.
	if wd, err := os.Getwd(); err == nil {
		for i := range diags {
			if rel, err := filepath.Rel(wd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
				diags[i].File = rel
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "ampvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			names := make([]string, 0, len(suite))
			for _, a := range suite {
				names = append(names, a.Name)
			}
			fmt.Fprintf(stderr, "ampvet: %d finding(s) from checks [%s]\n",
				len(diags), strings.Join(names, " "))
		}
		return 1
	}
	return 0
}
