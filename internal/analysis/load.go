package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	Error      *struct{ Err string }
}

// Package is one loaded, parsed and type-checked package, ready to be
// handed to analyzers as a Pass.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds soft type-checking problems. Analyzers still
	// run on a package with type errors, but the driver surfaces them.
	TypeErrors []error
}

// Loader loads Go packages without golang.org/x/tools: package
// discovery is delegated to `go list -deps -json` (which understands
// modules, build constraints and std vendoring) and type checking to
// go/types.
//
// Dependencies are checked with IgnoreFuncBodies — analyzers only need
// their exported API — while the packages named for analysis get a
// full check with a populated types.Info. CGO_ENABLED=0 is forced so
// every package, including net, resolves to its pure-Go file set and
// type-checks from source alone.
//
// Loading is parallel: each target package is parsed and fully checked
// in its own goroutine (bounded by GOMAXPROCS), and the shared
// API-view cache is populated on demand with per-path once semantics —
// the first goroutine to need a dependency builds it, everyone else
// waits on that build. token.FileSet and parser are safe for
// concurrent use; go/types is safe as long as every import resolves to
// a completed package, which the once-guard guarantees.
type Loader struct {
	Fset *token.FileSet
	// GoCmd overrides the go tool path (default "go").
	GoCmd string
	// Dir is the working directory for go list (default: current).
	Dir string

	// api memoizes dependency packages checked without function
	// bodies, keyed by resolved import path, with once-per-path build
	// semantics for parallel loads.
	apiMu sync.Mutex
	api   map[string]*apiEntry

	// meta caches go list output keyed by resolved import path.
	metaMu sync.Mutex
	meta   map[string]*listedPackage
}

// apiEntry is one memoized API-view build.
type apiEntry struct {
	once sync.Once
	pkg  *types.Package
	err  error
}

// NewLoader returns a Loader with a fresh FileSet.
func NewLoader(dir string) *Loader {
	l := &Loader{
		Fset:  token.NewFileSet(),
		GoCmd: "go",
		Dir:   dir,
		api:   map[string]*apiEntry{},
		meta:  map[string]*listedPackage{},
	}
	unsafeEntry := &apiEntry{pkg: types.Unsafe}
	unsafeEntry.once.Do(func() {})
	l.api["unsafe"] = unsafeEntry
	return l
}

// goList runs `go list -e -deps -json` over the patterns and returns
// the decoded packages in dependency-first order.
func (l *Loader) goList(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command(l.GoCmd, args...)
	cmd.Dir = l.Dir
	cmd.Env = appendEnvNoCgo()
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Load resolves the patterns to their `go list -deps` closure and
// returns fully type-checked Packages for every non-standard-library
// package in it, sorted by import path. The targets are checked in
// parallel, resolving their imports through the shared API cache.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	var targets []*listedPackage
	l.metaMu.Lock()
	for _, p := range listed {
		l.meta[p.ImportPath] = p
		if !p.Standard && p.ImportPath != "unsafe" {
			targets = append(targets, p)
		}
	}
	l.metaMu.Unlock()

	var (
		mu    sync.Mutex
		out   []*Package
		first error
		wg    sync.WaitGroup
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, p := range targets {
		wg.Add(1)
		sem <- struct{}{}
		go func(p *listedPackage) {
			defer wg.Done()
			defer func() { <-sem }()
			full, err := l.fullCheck(p)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if first == nil {
					first = err
				}
				return
			}
			out = append(out, full)
		}(p)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir type-checks a single directory of Go files as the package
// path given, resolving imports through resolve (testdata fixtures)
// and falling back to the loader's module/std view. It powers the
// analysistest harness.
func (l *Loader) LoadDir(dir, path string, resolve func(path string) (*types.Package, error)) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if resolve != nil {
			if pkg, err := resolve(p); err != nil || pkg != nil {
				return pkg, err
			}
		}
		return l.importByPath(p, nil)
	})
	return l.check(path, dir, files, imp, false)
}

// parseDir parses every non-test .go file in dir.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, m := range matches {
		if isTestFile(m) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, m, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

func isTestFile(name string) bool {
	return len(name) > len("_test.go") &&
		name[len(name)-len("_test.go"):] == "_test.go"
}

// lookupMeta fetches (or go-list-fetches) the listing for one path.
func (l *Loader) lookupMeta(path string) (*listedPackage, error) {
	l.metaMu.Lock()
	p, ok := l.meta[path]
	l.metaMu.Unlock()
	if ok {
		return p, nil
	}
	// Outside the -deps closure (fixture importing an uncovered
	// package): ask go list for it and its deps.
	extra, err := l.goList([]string{path})
	if err != nil {
		return nil, err
	}
	l.metaMu.Lock()
	defer l.metaMu.Unlock()
	for _, e := range extra {
		if _, seen := l.meta[e.ImportPath]; !seen {
			l.meta[e.ImportPath] = e
		}
	}
	if p, ok = l.meta[path]; !ok {
		return nil, fmt.Errorf("package %s not found by go list", path)
	}
	return p, nil
}

// apiPackage returns the exported-API view of the import path,
// type-checking it (without function bodies) on first use. Concurrent
// callers share one build per path.
func (l *Loader) apiPackage(path string) (*types.Package, error) {
	l.apiMu.Lock()
	entry, ok := l.api[path]
	if !ok {
		entry = &apiEntry{}
		l.api[path] = entry
	}
	l.apiMu.Unlock()
	entry.once.Do(func() {
		entry.pkg, entry.err = l.buildAPI(path)
	})
	return entry.pkg, entry.err
}

// buildAPI parses and API-checks one dependency package.
func (l *Loader) buildAPI(path string) (*types.Package, error) {
	p, err := l.lookupMeta(path)
	if err != nil {
		return nil, err
	}
	if p.Error != nil {
		return nil, fmt.Errorf("package %s: %s", path, p.Error.Err)
	}
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := l.check(p.ImportPath, p.Dir, files, l.importerFor(p), true)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// fullCheck checks a target package with bodies and a full types.Info
// for the analyzers.
func (l *Loader) fullCheck(p *listedPackage) (*Package, error) {
	if p.Error != nil {
		return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
	}
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.check(p.ImportPath, p.Dir, files, l.importerFor(p), false)
}

// importerFor resolves a package's imports honoring its ImportMap
// (std vendoring) through the API cache.
func (l *Loader) importerFor(p *listedPackage) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		return l.importByPath(path, p.ImportMap)
	})
}

func (l *Loader) importByPath(path string, importMap map[string]string) (*types.Package, error) {
	if mapped, ok := importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return l.apiPackage(path)
}

// check runs go/types over the files.
func (l *Loader) check(path, dir string, files []*ast.File, imp types.Importer, apiOnly bool) (*Package, error) {
	var softErrs []error
	conf := types.Config{
		Importer:         imp,
		IgnoreFuncBodies: apiOnly,
		FakeImportC:      true,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			softErrs = append(softErrs, err)
		},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{
		Path:       path,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: softErrs,
	}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// appendEnvNoCgo returns the process environment with CGO_ENABLED=0
// so go list selects the pure-Go file sets that go/types can check
// from source.
func appendEnvNoCgo() []string {
	return append(os.Environ(), "CGO_ENABLED=0")
}
