package cluster

import (
	"context"
	"fmt"
	"testing"

	"ampsched/internal/server"
)

// The fleet hot paths benchsnap gates in BENCH_micro.json: every
// submission pays one routing-key hash and one ring lookup, and every
// cross-node cache miss pays one peer result round trip over loopback
// HTTP.

func BenchmarkClusterRingOwner(b *testing.B) {
	members := make([]string, 16)
	for i := range members {
		members[i] = fmt.Sprintf("10.0.0.%d:8080", i+1)
	}
	r := NewRing(members)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = JobKey([]server.JobSpec{{Pairs: 3, Seed: uint64(i)}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Owner(keys[i%len(keys)]) == "" {
			b.Fatal("empty owner")
		}
	}
}

func BenchmarkClusterJobRouteKey(b *testing.B) {
	body := []byte(`{"pairs":5,"seed":7,"fidelity":"interval"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := jobRouteKey(body); !ok {
			b.Fatal("route key failed")
		}
	}
}

func BenchmarkClusterPeerResultFetch(b *testing.B) {
	fleet := startFleet(b, 2, nil)
	const key = "benchmark-pair-record"
	data := []byte(`{"pair":["gcc","swim"],"speedup":1.25}`)
	fleet[0].srv.Cache().Put(key, data)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := fleet[1].node.getPeerResult(ctx, fleet[0].addr, key)
		if err != nil || len(got) != len(data) {
			b.Fatalf("fetch: %v (%d bytes)", err, len(got))
		}
	}
}
