package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"ampsched/internal/analysis"
)

// TestParallelLoadAndRunSuite drives the concurrent paths end to end
// on real module packages: List -> LoadTargets fans type-checking out
// across workers, RunSuite fans analysis out, and the skip callback
// serves one package from a fake cache. Run with -race this doubles as
// the loader/suite data-race regression test.
func TestParallelLoadAndRunSuite(t *testing.T) {
	loader := analysis.NewLoader(".")
	listed, err := loader.List(
		"ampsched/internal/rng",
		"ampsched/internal/workload",
		"ampsched/internal/metrics",
		"ampsched/internal/power",
	)
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{
		"ampsched/internal/rng":      true,
		"ampsched/internal/workload": true,
		"ampsched/internal/metrics":  true,
		"ampsched/internal/power":    true,
	}
	var targets []*analysis.ListedPackage
	for _, p := range listed {
		if roots[p.ImportPath] {
			targets = append(targets, p)
		}
	}
	if len(targets) != 4 {
		t.Fatalf("listed %d root targets, want 4", len(targets))
	}
	pkgs, err := loader.LoadTargets(targets)
	if err != nil {
		t.Fatal(err)
	}
	canned := []analysis.Diagnostic{{
		File: "fake.go", Line: 1, Column: 1,
		Check: "determinism", Message: "served from cache",
	}}
	served := 0
	diags, err := analysis.RunSuite(pkgs, analysis.All(),
		func(pkg *analysis.Package) ([]analysis.Diagnostic, bool) {
			if pkg.Path == "ampsched/internal/rng" {
				served++
				return canned, true
			}
			return nil, false
		})
	if err != nil {
		t.Fatal(err)
	}
	if served != 1 {
		t.Fatalf("skip callback served %d packages, want 1", served)
	}
	fromCache := 0
	for _, d := range diags {
		if d.Message == "served from cache" {
			fromCache++
			if d.Package != "ampsched/internal/rng" {
				t.Errorf("cached diag attributed to %q", d.Package)
			}
		} else {
			t.Errorf("unexpected live finding: %s", d.String())
		}
	}
	if fromCache != 1 {
		t.Fatalf("got %d cached findings back, want 1", fromCache)
	}
}

// fixtureListing writes a tiny two-package universe to dir and returns
// its ListedPackage metadata (dep first, app second).
func fixtureListing(t *testing.T, dir, body string) []*analysis.ListedPackage {
	t.Helper()
	depDir := filepath.Join(dir, "dep")
	appDir := filepath.Join(dir, "app")
	for d, src := range map[string]string{
		depDir: "package dep\n\nfunc Answer() int { return 42 }\n",
		appDir: body,
	} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "f.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return []*analysis.ListedPackage{
		{ImportPath: "example/dep", Dir: depDir, GoFiles: []string{"f.go"}},
		{ImportPath: "example/app", Dir: appDir, GoFiles: []string{"f.go"},
			Imports: []string{"example/dep"}},
	}
}

func TestFindingsCacheRoundTrip(t *testing.T) {
	src := t.TempDir()
	listed := fixtureListing(t, src, "package app\n\nfunc Use() int { return 1 }\n")

	cacheDir := t.TempDir()
	cache, err := analysis.NewFindingsCache(cacheDir, "salt-v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Index(listed); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get("example/app"); ok {
		t.Fatal("cold cache reported a hit")
	}
	want := []analysis.Diagnostic{{File: "f.go", Line: 3, Column: 1, Check: "lockcheck", Message: "planted"}}
	if err := cache.Put("example/app", want); err != nil {
		t.Fatal(err)
	}
	if err := cache.Put("example/dep", nil); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Get("example/app")
	if !ok || len(got) != 1 || got[0] != want[0] {
		t.Fatalf("Get = %v, %v; want the planted finding", got, ok)
	}
	// Empty verdicts are cached too — that is the warm fast path.
	if d, ok := cache.Get("example/dep"); !ok || len(d) != 0 {
		t.Fatalf("empty verdict not served: %v, %v", d, ok)
	}

	// Editing the DEPENDENCY changes the dependent's key: the summary
	// layer propagates facts across package boundaries, so app's
	// verdict must be recomputed.
	if err := os.WriteFile(filepath.Join(src, "dep", "f.go"),
		[]byte("package dep\n\nfunc Answer() int { return 43 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cache2, err := analysis.NewFindingsCache(cacheDir, "salt-v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cache2.Index(listed); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache2.Get("example/app"); ok {
		t.Fatal("dependency edit did not invalidate the dependent")
	}

	// A different salt (new ampvet binary, different check set) misses.
	cache3, err := analysis.NewFindingsCache(cacheDir, "salt-v2")
	if err != nil {
		t.Fatal(err)
	}
	// Restore the original dep content so only the salt differs.
	if err := os.WriteFile(filepath.Join(src, "dep", "f.go"),
		[]byte("package dep\n\nfunc Answer() int { return 42 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cache3.Index(listed); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache3.Get("example/app"); ok {
		t.Fatal("salt change did not invalidate the cache")
	}
}
