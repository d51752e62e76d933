package pairstore

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ampsched/internal/telemetry"
)

// Cache is the content-addressed result store: an LRU map under a
// byte budget, with singleflight deduplication (concurrent identical
// requests compute once and share the bytes) and optional disk
// persistence (Save/Load) so a restarted server or sweep reuses prior
// records.
//
// Values are immutable byte slices addressed by CacheKey output;
// callers must not mutate what Get/Do return.
//
// Telemetry (under "server.", the service's metric names, whoever owns
// the cache): cache_hits, cache_misses, cache_joined (singleflight
// collapses), cache_evictions counters and the cache_bytes /
// cache_entries gauges.
type Cache struct {
	budget    int64
	dir       string
	writeFile func(name string, data []byte, perm os.FileMode) error
	validate  func(data []byte) bool

	// saveMu serializes Save. Every Save writes a key through the same
	// "<key>.json.tmp", so overlapping Saves could promote each other's
	// torn writes and mark the key clean.
	saveMu sync.Mutex

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	used    int64
	dirty   map[string]bool // keys not yet persisted
	flights map[string]*flight

	hits      *telemetry.Counter
	misses    *telemetry.Counter
	joined    *telemetry.Counter
	evictions *telemetry.Counter
	corrupt   *telemetry.Counter
	bytes     *telemetry.Gauge
	entries   *telemetry.Gauge
}

// centry is one resident cache entry.
type centry struct {
	key  string
	data []byte
}

// flight is one in-progress computation other callers can join.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// CacheConfig sizes a Cache.
type CacheConfig struct {
	// ByteBudget caps resident value bytes; 0 means 64 MiB.
	ByteBudget int64
	// Dir, when non-empty, enables disk persistence: Load reads prior
	// entries from it, Save writes new ones (one file per key).
	Dir string
	// WriteFile overrides the persistence write primitive (nil =
	// os.WriteFile) — the chaos harness's disk-fault seam. The tmp+
	// rename protocol around it means a torn or refused write never
	// corrupts a promoted entry.
	WriteFile func(name string, data []byte, perm os.FileMode) error
	// Validate, when non-nil, checks a loaded entry's content; entries
	// it rejects are quarantined like unreadable ones. The server and
	// ampexperiments wire json.Valid here (every record they store is
	// JSON, so a truncated file from a crash is detectable).
	Validate func(data []byte) bool
	// Telemetry receives cache metrics; nil disables them.
	Telemetry *telemetry.Telemetry
}

// NewCache builds an empty cache (call Load to warm it from disk).
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.ByteBudget < 0 {
		return nil, fmt.Errorf("pairstore: negative cache byte budget")
	}
	if cfg.ByteBudget == 0 {
		cfg.ByteBudget = 64 << 20
	}
	if cfg.WriteFile == nil {
		cfg.WriteFile = os.WriteFile
	}
	tel := cfg.Telemetry
	return &Cache{
		budget:    cfg.ByteBudget,
		dir:       cfg.Dir,
		writeFile: cfg.WriteFile,
		validate:  cfg.Validate,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		dirty:     make(map[string]bool),
		flights:   make(map[string]*flight),
		hits:      tel.Counter("server.cache_hits"),
		misses:    tel.Counter("server.cache_misses"),
		joined:    tel.Counter("server.cache_joined"),
		evictions: tel.Counter("server.cache_evictions"),
		corrupt:   tel.Counter("server.cache_corrupt"),
		bytes:     tel.Gauge("server.cache_bytes"),
		entries:   tel.Gauge("server.cache_entries"),
	}, nil
}

// Get returns the cached bytes for key, refreshing its recency.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*centry).data, true
}

// Peek is Get without touching recency or hit/miss counters — for
// introspection endpoints.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*centry).data, true
}

// Put inserts (or refreshes) key with data, evicting LRU entries past
// the byte budget. Values larger than the whole budget are admitted
// alone (the cache holds at least the latest result).
func (c *Cache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, data)
}

// put is Put under c.mu.
func (c *Cache) put(key string, data []byte) {
	if el, ok := c.items[key]; ok {
		e := el.Value.(*centry)
		c.used += int64(len(data)) - int64(len(e.data))
		e.data = data
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&centry{key: key, data: data})
		c.used += int64(len(data))
	}
	c.dirty[key] = true // a replaced value (say, over an undecodable record) is persisted too
	for c.used > c.budget && c.ll.Len() > 1 {
		back := c.ll.Back()
		e := back.Value.(*centry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.used -= int64(len(e.data))
		delete(c.dirty, e.key) // unsaved evictee is simply recomputed later
		c.evictions.Inc()
	}
	c.bytes.Set(float64(c.used))
	c.entries.Set(float64(c.ll.Len()))
}

// Do returns the bytes for key, computing them at most once across
// concurrent callers: a resident entry is a hit; a caller that finds
// an in-flight computation joins it (counted as cache_joined and, on
// success, a hit — the simulation ran once); otherwise the caller
// computes, populates the cache, and returns hit=false.
//
// ctx bounds only this caller's wait on a joined flight — the
// computation itself belongs to the caller that started it. A flight
// that ends in a context error says only that its leader gave up, so a
// joiner whose own ctx is live tries again: it joins a newer flight or
// leads one. A compute that panics still ends its flight: its joiners
// get an error, and the next caller computes afresh.
func (c *Cache) Do(ctx context.Context, key string, compute func() ([]byte, error)) (data []byte, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits.Inc()
			data = el.Value.(*centry).data
			c.mu.Unlock()
			return data, true, nil
		}
		f, ok := c.flights[key]
		if !ok {
			break // still holding c.mu: lead a new flight
		}
		c.joined.Inc()
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err == nil {
			c.hits.Inc()
			return f.data, true, nil
		}
		leaderGaveUp := errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)
		if !leaderGaveUp || ctx.Err() != nil {
			return nil, false, f.err
		}
	}
	f := &flight{done: make(chan struct{}), err: errComputePanicked}
	c.flights[key] = f
	c.misses.Inc()
	c.mu.Unlock()

	// The flight ends even when compute panics, with errComputePanicked
	// for its joiners, so the key is not left waiting on it for good.
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.put(key, f.data)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.data, f.err = compute()
	return f.data, false, f.err
}

// errComputePanicked is what the joiners of a flight whose compute
// panicked get; the leader's panic goes on up its own stack.
var errComputePanicked = errors.New("pairstore: the flight's computation panicked")

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the resident value bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Save persists every not-yet-saved resident entry to the cache
// directory, one "<key>.json" file per entry (the key is hex, so the
// name is safe). A cache without a directory saves nothing. Partial
// failures leave the remaining entries dirty and return the first
// error. Concurrent Saves run one at a time.
//
//ampvet:allow lockcheck saveMu exists to serialize persistence I/O; holding it across the writes is its whole job, and lookups and Puts never take it
func (c *Cache) Save() error {
	if c.dir == "" {
		return nil
	}
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("pairstore: cache dir: %w", err)
	}
	c.mu.Lock()
	keys := make([]string, 0, len(c.dirty))
	for k := range c.dirty { //ampvet:allow determinism keys are sorted below before any observable effect
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if el, ok := c.items[k]; ok {
			entries[k] = el.Value.(*centry).data
		}
	}
	c.mu.Unlock()

	var first error
	for _, k := range keys {
		data, ok := entries[k]
		if !ok {
			continue
		}
		path := filepath.Join(c.dir, k+".json")
		tmp := path + ".tmp"
		err := c.writeFile(tmp, data, 0o644)
		if err == nil {
			err = os.Rename(tmp, path)
		} else {
			os.Remove(tmp) // a torn tmp file must never linger
		}
		if err != nil {
			if first == nil {
				first = fmt.Errorf("pairstore: persisting cache entry %s: %w", k, err)
			}
			continue
		}
		c.mu.Lock()
		delete(c.dirty, k)
		c.mu.Unlock()
	}
	return first
}

// Load reads previously saved entries from the cache directory into
// memory (up to the byte budget; files load in name order, so which
// survive a crowded budget is deterministic). Loaded entries are
// clean — Save will not rewrite them. Missing directory is not an
// error: a first run simply starts cold.
//
// A corrupt or truncated entry — unreadable, or not the valid JSON
// every entry is written as — is quarantined: renamed to
// "<name>.corrupt", counted in server.cache_corrupt, and skipped. One
// damaged file (a torn write from a crash mid-Save) must not cost the
// rest of the cache, and its key simply recomputes on next use.
func (c *Cache) Load() error {
	if c.dir == "" {
		return nil
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("pairstore: reading cache dir: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		key := strings.TrimSuffix(name, ".json")
		path := filepath.Join(c.dir, name)
		data, err := os.ReadFile(path)
		if err != nil || (c.validate != nil && !c.validate(data)) {
			c.quarantine(path)
			continue
		}
		c.mu.Lock()
		if _, ok := c.items[key]; !ok && c.used+int64(len(data)) <= c.budget {
			c.items[key] = c.ll.PushFront(&centry{key: key, data: data})
			c.used += int64(len(data))
		}
		c.bytes.Set(float64(c.used))
		c.entries.Set(float64(c.ll.Len()))
		c.mu.Unlock()
	}
	return nil
}

// quarantine renames a damaged cache file out of the load path
// (best-effort: an unrenamable file is just skipped again next boot).
func (c *Cache) quarantine(path string) {
	c.corrupt.Inc()
	_ = os.Rename(path, path+".corrupt")
}
