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
// Per-package verdicts are cached on disk keyed by package content
// (see internal/analysis FindingsCache), so a warm run costs one
// `go list` plus hashing. -cachedir overrides the location,
// -nocache disables it entirely.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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
	verbose := fs.Bool("v", false, "report packages as they are analyzed")
	cacheDir := fs.String("cachedir", "", "findings-cache directory (default: user cache dir)")
	noCache := fs.Bool("nocache", false, "disable the findings cache")
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

	loader := analysis.NewLoader(".")
	listed, err := loader.List(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "ampvet:", err)
		return 2
	}
	var targets []*analysis.ListedPackage
	for _, p := range listed {
		if !p.Standard && p.ImportPath != "unsafe" {
			targets = append(targets, p)
		}
	}

	cache := openCache(*cacheDir, *noCache, suite, stderr, *verbose)
	hits := map[string][]analysis.Diagnostic{}
	if cache != nil {
		if err := cache.Index(listed); err != nil {
			// Hash failures (racing file deletion, permissions) only
			// cost the cache, never correctness.
			if *verbose {
				fmt.Fprintln(stderr, "ampvet: cache disabled:", err)
			}
			cache = nil
		}
	}
	if cache != nil {
		for _, p := range targets {
			if d, ok := cache.Get(p.ImportPath); ok {
				hits[p.ImportPath] = d
			}
		}
	}

	var diags []analysis.Diagnostic
	if len(hits) == len(targets) && cache != nil {
		// Every package verdict is current: no parse, no type check.
		for _, d := range hits {
			diags = append(diags, d...)
		}
		sort.Slice(diags, func(i, j int) bool {
			a, b := diags[i], diags[j]
			if a.File != b.File {
				return a.File < b.File
			}
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			return a.Column < b.Column
		})
		if *verbose {
			fmt.Fprintf(stderr, "ampvet: %d package(s), all served from cache\n", len(targets))
		}
	} else {
		pkgs, err := loader.LoadTargets(targets)
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
		diags, err = analysis.RunSuite(pkgs, suite, func(pkg *analysis.Package) ([]analysis.Diagnostic, bool) {
			d, ok := hits[pkg.Path]
			return d, ok
		})
		if err != nil {
			fmt.Fprintln(stderr, "ampvet:", err)
			return 2
		}
		if cache != nil {
			perPkg := map[string][]analysis.Diagnostic{}
			for _, d := range diags {
				perPkg[d.Package] = append(perPkg[d.Package], d)
			}
			for _, pkg := range pkgs {
				if _, hit := hits[pkg.Path]; hit {
					continue
				}
				if err := cache.Put(pkg.Path, perPkg[pkg.Path]); err != nil && *verbose {
					fmt.Fprintln(stderr, "ampvet: cache write:", err)
				}
			}
		}
		if *verbose {
			fmt.Fprintf(stderr, "ampvet: %d package(s): %d analyzed, %d from cache\n",
				len(pkgs), len(pkgs)-len(hits), len(hits))
		}
	}

	// Emit paths relative to the working directory so editor links and
	// the CI problem matcher's PR-diff annotations both resolve against
	// the repo root, and cached absolute paths from other checkouts
	// normalize the same way.
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

// openCache builds the findings cache with a salt covering the ampvet
// binary itself, the toolchain and the enabled checks. Any failure
// (no user cache dir, unreadable executable) silently disables
// caching — it is an accelerator, not a dependency.
func openCache(dir string, disabled bool, suite []*analysis.Analyzer, stderr io.Writer, verbose bool) *analysis.FindingsCache {
	if disabled {
		return nil
	}
	if dir == "" {
		ucd, err := os.UserCacheDir()
		if err != nil {
			return nil
		}
		dir = filepath.Join(ucd, "ampvet")
	}
	exeHash, err := executableHash()
	if err != nil {
		if verbose {
			fmt.Fprintln(stderr, "ampvet: cache disabled:", err)
		}
		return nil
	}
	names := make([]string, 0, len(suite))
	for _, a := range suite {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	salt := exeHash + "|" + runtime.Version() + "|" + strings.Join(names, ",")
	c, err := analysis.NewFindingsCache(dir, salt)
	if err != nil {
		if verbose {
			fmt.Fprintln(stderr, "ampvet: cache disabled:", err)
		}
		return nil
	}
	return c
}

// executableHash hashes the running ampvet binary, so editing any
// analyzer (even under `go run`) invalidates cached verdicts.
func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
