package pairstore

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkServerCacheKey measures the content-address hash on the hot
// submission path (one hash per pair per job).
func BenchmarkServerCacheKey(b *testing.B) {
	spec := KeySpec{
		Version:       SchemaVersion,
		CoreDigest:    "0011223344556677",
		BenchA:        "gcc",
		BenchB:        "swim",
		PairIndex:     7,
		Seed:          42,
		InstrLimit:    250_000_000,
		ContextSwitch: 2_500_000,
		SwapOverhead:  1000,
		ProfileLimit:  50_000_000,
		Fidelity:      "interval",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec.PairIndex = i
		if CacheKey(spec) == "" {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkServerCacheHit measures the resident-entry fast path of
// Cache.Do — what a warm server pays per pair on a repeat sweep.
func BenchmarkServerCacheHit(b *testing.B) {
	c := mustCache(b, CacheConfig{ByteBudget: 1 << 20})
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x", i)
		c.Put(keys[i], []byte("cached pair record"))
	}
	ctx := context.Background()
	compute := func() ([]byte, error) { return nil, fmt.Errorf("must not compute") }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := c.Do(ctx, keys[i%len(keys)], compute)
		if err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}
