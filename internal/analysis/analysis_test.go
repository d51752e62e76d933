package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampsched/internal/analysis"
	"ampsched/internal/analysis/analysistest"
)

// The analyzers against their testdata fixtures: each must catch
// every planted violation, honor //ampvet:allow, and stay quiet on the
// clean/out-of-scope packages.

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DeterminismAnalyzer, "determinism/internal/sched")
}

func TestDeterminismServiceScope(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DeterminismAnalyzer, "determinism/internal/jobqueue")
}

func TestDeterminismWALScope(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DeterminismAnalyzer, "determinism/internal/wal")
}

func TestDeterminismFleetScope(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DeterminismAnalyzer, "determinism/internal/cluster")
}

func TestDeterminismOutOfScope(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DeterminismAnalyzer, "determinism/outofscope")
}

func TestHotPathAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotPathAllocAnalyzer, "hotpathalloc")
}

func TestObsErrCheck(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ObsErrCheckAnalyzer, "obserrcheck/app")
}

func TestLockCheck(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockCheckAnalyzer, "lockcheck")
}

func TestUnitCheck(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.UnitCheckAnalyzer, "unitcheck")
}

func TestCtxCheck(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CtxCheckAnalyzer, "ctxcheck/app")
}

func TestCtxCheckMainExempt(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CtxCheckAnalyzer, "ctxcheck/mainpkg")
}

func TestDirectivePlacement(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CtxCheckAnalyzer, "directives2")
}

// TestMalformedDirectives loads the directives fixture directly: a
// reason-less allow must both be reported and fail to suppress, and an
// unknown check name must be reported.
func TestMalformedDirectives(t *testing.T) {
	loader := analysis.NewLoader(".")
	pkg, err := loader.LoadDir("testdata/src/directives", "directives", nil)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.DeterminismAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Check+": "+d.Message)
	}
	wantSubstrings := []string{
		"ampvet: ampvet:allow determinism needs a reason",
		"ampvet: ampvet:allow names unknown check nosuchcheck",
		"ampvet: unknown directive ampvet:ignore",
		"ampvet: ampvet:unit names unknown dimension furlongs",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, g := range got {
			if strings.Contains(g, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing finding containing %q in %q", want, got)
		}
	}
	// The package is named "directives", not simulation core, so the
	// time.Now calls themselves are out of determinism's scope — only
	// the malformed directives are findings.
	if len(diags) != len(wantSubstrings) {
		t.Errorf("got %d findings, want exactly the %d malformed directives: %v",
			len(diags), len(wantSubstrings), got)
	}
}

// TestStaleAllows loads the staleallow fixture directly: under the
// full suite every allow that covers no finding is reported, in line
// and doc-comment form, while a narrowed run reports none of them.
func TestStaleAllows(t *testing.T) {
	const dir = "testdata/src/staleallow"
	loader := analysis.NewLoader(".")
	pkg, err := loader.LoadDir(dir, "staleallow", nil)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	src, err := os.ReadFile(filepath.Join(dir, "fixture.go"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")

	diags, err := analysis.RunAnalyzers(pkg, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want the 2 stale allows: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Check != "ampvet" || !strings.Contains(d.Message, "suppresses no finding") ||
			!strings.Contains(lines[d.Line-1], "stale:") {
			t.Errorf("unexpected finding %s", d)
		}
	}

	narrowed, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.CtxCheckAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(narrowed) != 0 {
		t.Errorf("narrowed run reported %v, want nothing", narrowed)
	}
}

// TestByName checks the driver's -checks resolution.
func TestByName(t *testing.T) {
	suite, err := analysis.ByName("determinism, obserrcheck")
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 2 || suite[0].Name != "determinism" || suite[1].Name != "obserrcheck" {
		t.Fatalf("ByName resolved %v", suite)
	}
	if _, err := analysis.ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown check")
	}
}

// TestLoaderLoadsModulePackage exercises the go list loader on a real
// module package with a std dependency.
func TestLoaderLoadsModulePackage(t *testing.T) {
	loader := analysis.NewLoader(".")
	pkgs, err := loader.Load("ampsched/internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Types == nil || pkgs[0].Types.Name() != "rng" {
		t.Fatalf("loaded %+v", pkgs)
	}
	if len(pkgs[0].TypeErrors) != 0 {
		t.Fatalf("type errors: %v", pkgs[0].TypeErrors)
	}
}
