package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// FindingsCache memoizes per-package analyzer verdicts on disk so a
// warm `make lint` costs one `go list` plus file hashing instead of a
// full parse/type-check/analyze cycle.
//
// A package's key is a SHA-256 over everything that can change its
// findings:
//
//   - a driver-supplied salt (ampvet binary content hash + go version
//   - enabled check names) — editing any analyzer or flipping a
//     check invalidates the whole cache;
//   - the package's import path and the contents of its Go files;
//   - recursively, the keys of its non-standard-library imports — the
//     summary layer propagates blocking facts and unit tags across
//     package boundaries, so a dependency edit must re-analyze its
//     dependents. Standard-library content is pinned by the go
//     version in the salt.
//
// The cached value is the package's full diagnostic list; an empty
// list — the common case — is cached too, which is what makes the
// warm path fast.
type FindingsCache struct {
	dir  string
	salt string

	// keys maps import path -> content key, memoized across the
	// recursive dependency walk.
	keys map[string]string
	meta map[string]*ListedPackage
}

// NewFindingsCache opens (creating if needed) a cache directory.
func NewFindingsCache(dir, salt string) (*FindingsCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FindingsCache{
		dir:  dir,
		salt: salt,
		keys: map[string]string{},
		meta: map[string]*ListedPackage{},
	}, nil
}

// Index computes content keys for every non-std package in the
// listing. Must be called before Get/Put.
func (c *FindingsCache) Index(listed []*ListedPackage) error {
	for _, p := range listed {
		c.meta[p.ImportPath] = p
	}
	for _, p := range listed {
		if p.Standard || p.ImportPath == "unsafe" {
			continue
		}
		if _, err := c.key(p.ImportPath); err != nil {
			return err
		}
	}
	return nil
}

// key computes (and memoizes) one package's content key.
func (c *FindingsCache) key(path string) (string, error) {
	if k, ok := c.keys[path]; ok {
		return k, nil
	}
	p, ok := c.meta[path]
	if !ok {
		return "", fmt.Errorf("findings cache: package %s not in listing", path)
	}
	h := sha256.New()
	fmt.Fprintf(h, "salt %s\npkg %s\n", c.salt, p.ImportPath)
	for _, name := range p.GoFiles {
		data, err := os.ReadFile(filepath.Join(p.Dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "file %s %d\n", name, len(data))
		h.Write(data)
	}
	imports := append([]string(nil), p.Imports...)
	sort.Strings(imports)
	for _, imp := range imports {
		if mapped, ok := p.ImportMap[imp]; ok {
			imp = mapped
		}
		dep, ok := c.meta[imp]
		if !ok || dep.Standard || imp == "unsafe" || imp == "C" {
			fmt.Fprintf(h, "std %s\n", imp)
			continue
		}
		dk, err := c.key(imp)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "dep %s %s\n", imp, dk)
	}
	k := hex.EncodeToString(h.Sum(nil))
	c.keys[path] = k
	return k, nil
}

// cacheEntry is the on-disk record.
type cacheEntry struct {
	Version int          `json:"version"`
	Package string       `json:"pkg"`
	Diags   []Diagnostic `json:"diags"`
}

const cacheVersion = 1

// file returns the entry path for a package's current key.
func (c *FindingsCache) file(path string) (string, bool) {
	k, ok := c.keys[path]
	if !ok {
		return "", false
	}
	return filepath.Join(c.dir, k[:2], k[2:]+".json"), true
}

// Get returns the cached findings for the package's current content
// key.
func (c *FindingsCache) Get(path string) ([]Diagnostic, bool) {
	name, ok := c.file(path)
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Version != cacheVersion || e.Package != path {
		return nil, false
	}
	return e.Diags, true
}

// Put stores the package's findings under its current content key.
func (c *FindingsCache) Put(path string, diags []Diagnostic) error {
	name, ok := c.file(path)
	if !ok {
		return fmt.Errorf("findings cache: no key for %s", path)
	}
	if diags == nil {
		diags = []Diagnostic{}
	}
	data, err := json.Marshal(cacheEntry{Version: cacheVersion, Package: path, Diags: diags})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return err
	}
	tmp := name + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, name)
}
