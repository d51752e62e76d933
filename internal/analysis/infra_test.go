package analysis_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ampsched/internal/analysis"
)

// TestParallelLoadAndRunSuite drives the concurrent paths end to end
// on real module packages: Load fans type-checking out across workers
// and RunSuite fans analysis out. Run with -race this doubles as the
// loader/suite data-race regression test.
func TestParallelLoadAndRunSuite(t *testing.T) {
	roots := []string{
		"ampsched/internal/rng",
		"ampsched/internal/workload",
		"ampsched/internal/metrics",
		"ampsched/internal/power",
	}
	pkgs, err := analysis.NewLoader(".").Load(roots...)
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]bool{}
	for i, pkg := range pkgs {
		if i > 0 && pkgs[i-1].Path >= pkg.Path {
			t.Errorf("packages not sorted by path: %s before %s", pkgs[i-1].Path, pkg.Path)
		}
		loaded[pkg.Path] = true
	}
	for _, r := range roots {
		if !loaded[r] {
			t.Errorf("root %s not loaded", r)
		}
	}
	diags, err := analysis.RunSuite(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestInterfaceDispatchIntoImporter pins a verdict that depends on a
// package the flagged one does not import: dep holds a mutex across an
// interface call, and only impl, which imports dep, makes that call
// block. The analysistest fixtures run RunAnalyzers, whose summaries
// cover one package, so only a whole-load RunSuite sees this edge.
func TestInterfaceDispatchIntoImporter(t *testing.T) {
	dir := t.TempDir()
	const depSrc = `package dep

import "sync"

type I interface{ M() }

var mu sync.Mutex

func Call(i I) {
	mu.Lock()
	defer mu.Unlock()
	i.M()
}
`
	for name, src := range map[string]string{
		"go.mod":     "module example.com/m\n\ngo 1.22\n",
		"dep/dep.go": depSrc,
		"impl/impl.go": `package impl

import (
	"time"

	"example.com/m/dep"
)

type T struct{}

func (T) M() { time.Sleep(time.Millisecond) }

var _ dep.I = T{}
`,
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pkgs, err := analysis.NewLoader(dir).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunSuite(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want the one lockcheck finding: %v", len(diags), diags)
	}
	d := diags[0]
	callLine := slices.Index(strings.Split(depSrc, "\n"), "\ti.M()") + 1
	if d.Check != "lockcheck" || filepath.Base(d.File) != "dep.go" || d.Line != callLine ||
		d.Package != "example.com/m/dep" || !strings.Contains(d.Message, "impl.T.M") {
		t.Errorf("got %s (pkg %s), want a lockcheck finding at dep.go:%d naming impl.T.M",
			d, d.Package, callLine)
	}
}
