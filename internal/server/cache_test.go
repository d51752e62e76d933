package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ampsched/internal/pairstore"
	"ampsched/internal/telemetry"
)

// The server's result cache is a pairstore.Cache. These tests pin the
// behaviour the server builds on: hit/miss/join accounting under the
// server.cache_* names, byte-budget eviction, singleflight, and
// persistence across restarts.

func mustCache(t *testing.T, cfg pairstore.CacheConfig) *pairstore.Cache {
	t.Helper()
	c, err := pairstore.NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheHitMiss(t *testing.T) {
	tel := telemetry.New()
	c := mustCache(t, pairstore.CacheConfig{ByteBudget: 1 << 20, Telemetry: tel})
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []byte("alpha"))
	got, ok := c.Get("a")
	if !ok || !bytes.Equal(got, []byte("alpha")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if hits := tel.Counter("server.cache_hits").Value(); hits != 1 {
		t.Fatalf("cache_hits = %d, want 1", hits)
	}
	if misses := tel.Counter("server.cache_misses").Value(); misses != 1 {
		t.Fatalf("cache_misses = %d, want 1", misses)
	}
}

func TestCacheEvictionUnderByteBudget(t *testing.T) {
	tel := telemetry.New()
	c := mustCache(t, pairstore.CacheConfig{ByteBudget: 30, Telemetry: tel})
	// Three 10-byte entries fill the budget exactly.
	for _, k := range []string{"a", "b", "c"} {
		c.Put(k, []byte("0123456789"))
	}
	if n, b := c.Len(), c.Bytes(); n != 3 || b != 30 {
		t.Fatalf("len=%d bytes=%d, want 3/30", n, b)
	}
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("lost entry a")
	}
	c.Put("d", []byte("0123456789"))
	if _, ok := c.Peek("b"); ok {
		t.Fatal("LRU entry b survived past the byte budget")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("entry %s wrongly evicted", k)
		}
	}
	if ev := tel.Counter("server.cache_evictions").Value(); ev != 1 {
		t.Fatalf("cache_evictions = %d, want 1", ev)
	}
	if b := c.Bytes(); b != 30 {
		t.Fatalf("bytes = %d, want 30", b)
	}
}

func TestCacheOversizedValueAdmittedAlone(t *testing.T) {
	c := mustCache(t, pairstore.CacheConfig{ByteBudget: 8})
	c.Put("big", make([]byte, 64))
	if _, ok := c.Peek("big"); !ok {
		t.Fatal("oversized value not admitted")
	}
	c.Put("big2", make([]byte, 64))
	if _, ok := c.Peek("big"); ok {
		t.Fatal("first oversized value not evicted by second")
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
}

func TestCacheSingleflightCollapse(t *testing.T) {
	tel := telemetry.New()
	c := mustCache(t, pairstore.CacheConfig{ByteBudget: 1 << 20, Telemetry: tel})
	var computes atomic.Int64
	gate := make(chan struct{})
	compute := func() ([]byte, error) {
		computes.Add(1)
		<-gate
		return []byte("result"), nil
	}
	const callers = 8
	var wg sync.WaitGroup
	hits := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, hit, err := c.Do(context.Background(), "k", compute)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			if !bytes.Equal(data, []byte("result")) {
				t.Errorf("caller %d got %q", i, data)
			}
			hits[i] = hit
		}(i)
	}
	// Let every caller reach the flight before releasing the compute.
	for tel.Counter("server.cache_joined").Value() < callers-1 {
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", got)
	}
	var hitCount int
	for _, h := range hits {
		if h {
			hitCount++
		}
	}
	if hitCount != callers-1 {
		t.Fatalf("%d callers saw hit=true, want %d (all but the computer)", hitCount, callers-1)
	}
	if joined := tel.Counter("server.cache_joined").Value(); joined != callers-1 {
		t.Fatalf("cache_joined = %d, want %d", joined, callers-1)
	}
}

func TestCacheDoErrorNotCached(t *testing.T) {
	c := mustCache(t, pairstore.CacheConfig{ByteBudget: 1 << 20})
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	if _, ok := c.Peek("k"); ok {
		t.Fatal("failed compute was cached")
	}
	// A later Do must re-run the computation.
	data, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || hit || !bytes.Equal(data, []byte("ok")) {
		t.Fatalf("retry Do = %q, hit=%v, err=%v", data, hit, err)
	}
}

func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, pairstore.CacheConfig{ByteBudget: 1 << 20, Dir: dir})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("%04x", i), []byte(fmt.Sprintf("value-%d", i)))
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	// Saving again writes nothing new (all entries clean) and is
	// error-free.
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	c2 := mustCache(t, pairstore.CacheConfig{ByteBudget: 1 << 20, Dir: dir})
	if err := c2.Load(); err != nil {
		t.Fatal(err)
	}
	if n := c2.Len(); n != 5 {
		t.Fatalf("reloaded %d entries, want 5", n)
	}
	for i := 0; i < 5; i++ {
		data, ok := c2.Peek(fmt.Sprintf("%04x", i))
		if !ok || !bytes.Equal(data, []byte(fmt.Sprintf("value-%d", i))) {
			t.Fatalf("entry %d: %q, %v", i, data, ok)
		}
	}
}

func TestCacheLoadRespectsBudget(t *testing.T) {
	dir := t.TempDir()
	c := mustCache(t, pairstore.CacheConfig{ByteBudget: 1 << 20, Dir: dir})
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("%04x", i), make([]byte, 10))
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	small := mustCache(t, pairstore.CacheConfig{ByteBudget: 35, Dir: dir})
	if err := small.Load(); err != nil {
		t.Fatal(err)
	}
	if n := small.Len(); n != 3 {
		t.Fatalf("budget-bound load kept %d entries, want 3", n)
	}
}

func TestCacheLoadMissingDirIsCold(t *testing.T) {
	c := mustCache(t, pairstore.CacheConfig{Dir: t.TempDir() + "/nonexistent"})
	if err := c.Load(); err != nil {
		t.Fatalf("missing dir: %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("cold cache not empty")
	}
}

func TestCacheKeyDeterminismAndSensitivity(t *testing.T) {
	spec := pairstore.KeySpec{Version: 1, BenchA: "gcc", BenchB: "swim", Seed: 7,
		InstrLimit: 1000, ContextSwitch: 100, SwapOverhead: 10, Fidelity: "interval"}
	k1 := pairstore.CacheKey(spec)
	k2 := pairstore.CacheKey(spec)
	if k1 != k2 {
		t.Fatal("identical specs hashed differently")
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not hex SHA-256", k1)
	}
	fields := []func(*pairstore.KeySpec){
		func(s *pairstore.KeySpec) { s.Version++ },
		func(s *pairstore.KeySpec) { s.BenchA = "mcf" },
		func(s *pairstore.KeySpec) { s.BenchB = "art" },
		func(s *pairstore.KeySpec) { s.PairIndex++ },
		func(s *pairstore.KeySpec) { s.Seed++ },
		func(s *pairstore.KeySpec) { s.InstrLimit++ },
		func(s *pairstore.KeySpec) { s.ContextSwitch++ },
		func(s *pairstore.KeySpec) { s.SwapOverhead++ },
		func(s *pairstore.KeySpec) { s.ProfileLimit++ },
		func(s *pairstore.KeySpec) { s.CycleBudget++ },
		func(s *pairstore.KeySpec) { s.Fidelity = "sampled" },
		func(s *pairstore.KeySpec) { s.FaultRate = 0.5 },
		func(s *pairstore.KeySpec) { s.FaultSeed++ },
		func(s *pairstore.KeySpec) { s.CoreDigest = "deadbeef" },
		func(s *pairstore.KeySpec) { s.Record = "outcome" },
		func(s *pairstore.KeySpec) { s.ProfileWindow = s.ContextSwitch },
	}
	seen := map[string]int{k1: -1}
	for i, mutate := range fields {
		s := spec
		mutate(&s)
		k := pairstore.CacheKey(s)
		if prev, dup := seen[k]; dup {
			t.Fatalf("field mutation %d collides with %d: key not sensitive to that field", i, prev)
		}
		seen[k] = i
	}
}
