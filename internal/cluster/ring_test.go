package cluster

import (
	"fmt"
	"testing"

	"ampsched/internal/server"
	"ampsched/internal/telemetry"
)

// TestRingDeterministicPlacement pins the coordination-free routing
// contract: every node that agrees on membership derives the
// identical ring, regardless of the order it learned the members in.
func TestRingDeterministicPlacement(t *testing.T) {
	members := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"}
	perms := [][]string{
		{members[0], members[1], members[2]},
		{members[2], members[0], members[1]},
		{members[1], members[2], members[0], members[0]}, // dup collapses
	}
	rings := make([]*Ring, len(perms))
	for i, p := range perms {
		rings[i] = NewRing(p)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("job-key-%d", i)
		want := rings[0].Owner(key)
		for j := 1; j < len(rings); j++ {
			if got := rings[j].Owner(key); got != want {
				t.Fatalf("ring %d owner(%q) = %q, ring 0 says %q", j, key, got, want)
			}
		}
	}
}

// TestRingDistribution requires virtual nodes to spread ownership:
// with 64 vnodes per member, no member of a 3-node ring should own a
// wildly disproportionate share of uniformly random keys.
func TestRingDistribution(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1"}
	r := NewRing(members)
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, m := range members {
		share := float64(counts[m]) / n
		if share < 0.15 || share > 0.55 {
			t.Errorf("member %s owns %.0f%% of keys; vnode spread is broken (counts %v)", m, 100*share, counts)
		}
	}
}

// TestRingMinimalRemap pins the consistent-hashing property: removing
// one member only remaps the keys that member owned; every other
// key's owner is unchanged.
func TestRingMinimalRemap(t *testing.T) {
	full := NewRing([]string{"a:1", "b:1", "c:1"})
	reduced := NewRing([]string{"a:1", "b:1"})
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before != "c:1" && after != before {
			t.Fatalf("key %q moved %q -> %q though its owner survived", key, before, after)
		}
	}
}

// TestRingOwners checks the lookup/replica order: distinct members,
// owner first, capped at the member count.
func TestRingOwners(t *testing.T) {
	r := NewRing([]string{"a:1", "b:1", "c:1"})
	owners := r.Owners("some-key", 5)
	if len(owners) != 3 {
		t.Fatalf("Owners = %v, want all 3 distinct members", owners)
	}
	if owners[0] != r.Owner("some-key") {
		t.Fatalf("Owners[0] = %q, Owner = %q", owners[0], r.Owner("some-key"))
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("duplicate member %q in %v", o, owners)
		}
		seen[o] = true
	}
	if got := NewRing(nil).Owner("x"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
}

// TestJobRouteKeyCanonical pins that routing keys survive client
// formatting: whitespace, field order and the single-vs-array
// submission forms must all produce the canonical key, so every node
// routes one logical job to one owner.
func TestJobRouteKeyCanonical(t *testing.T) {
	canonical := JobKey([]server.JobSpec{{Pairs: 2, Seed: 7}})
	variants := []string{
		`{"pairs":2,"seed":7}`,
		`{ "seed": 7, "pairs": 2 }`,
		"\n\t{\"pairs\": 2,\n \"seed\": 7}",
		`[{"pairs":2,"seed":7}]`,
	}
	for _, v := range variants {
		key, ok := jobRouteKey([]byte(v))
		if !ok {
			t.Fatalf("jobRouteKey(%q) not ok", v)
		}
		if key != canonical {
			t.Errorf("jobRouteKey(%q) = %s, want %s", v, key, canonical)
		}
	}
	other, ok := jobRouteKey([]byte(`{"pairs":2,"seed":8}`))
	if !ok || other == canonical {
		t.Fatalf("distinct spec produced the same routing key")
	}
	if _, ok := jobRouteKey([]byte(`{not json`)); ok {
		t.Fatal("undecodable body produced a routing key")
	}
	if _, ok := jobRouteKey(nil); ok {
		t.Fatal("empty body produced a routing key")
	}
}

// TestMembershipLifecycle drives a peer from alive through missed
// probes to dead and back, and checks its ring effects.
func TestMembershipLifecycle(t *testing.T) {
	tel := telemetry.New()
	m := newMembership("a:1", []string{"b:1", "c:1"}, tel)

	if got := m.lookupOrder("key"); len(got) != 2 {
		t.Fatalf("lookupOrder = %v, want b and c", got)
	}

	// Two misses: still alive and a routing target (stays on the ring).
	m.observe("b:1", false)
	m.observe("b:1", false)
	if m.dead("b:1") {
		t.Fatal("peer dead after 2 misses")
	}
	if got := m.lookupOrder("key"); len(got) != 2 {
		t.Fatalf("peer with 2 misses fell out of lookupOrder: %v", got)
	}
	ownsSomething := func(peer string) bool {
		for i := 0; i < 200; i++ {
			if m.owner(fmt.Sprintf("key-%d", i)) == peer {
				return true
			}
		}
		return false
	}
	if !ownsSomething("b:1") {
		t.Fatal("peer with 2 misses lost its ring share")
	}

	// Two more misses: dead. Off the ring and out of lookupOrder.
	m.observe("b:1", false)
	m.observe("b:1", false)
	if !m.dead("b:1") {
		t.Fatal("peer alive after 4 misses")
	}
	if ownsSomething("b:1") {
		t.Fatal("dead peer still owns keys")
	}
	if got := m.lookupOrder("key"); len(got) != 1 || got[0] != "c:1" {
		t.Fatalf("lookupOrder with b dead = %v, want [c:1]", got)
	}
	if got := tel.Counter("cluster.peer_deaths").Value(); got != 1 {
		t.Fatalf("cluster.peer_deaths = %d, want 1", got)
	}
	if got := tel.Counter("cluster.ring_rebuilds").Value(); got < 1 {
		t.Fatalf("cluster.ring_rebuilds = %d, want >= 1", got)
	}
	// Dead peers are still probed (allPeers) so a restart can rejoin.
	found := false
	for _, p := range m.allPeers() {
		if p == "b:1" {
			found = true
		}
	}
	if !found {
		t.Fatal("dead peer dropped from the probe set; it could never rejoin")
	}

	// One answered probe: alive again, back on the ring.
	m.observe("b:1", true)
	if m.dead("b:1") {
		t.Fatal("peer still dead after an answered probe")
	}
	if !ownsSomething("b:1") {
		t.Fatal("resurrected peer got no ring share back")
	}

	// A second death must re-count misses from zero.
	for i := 1; i < deadAfter; i++ {
		m.observe("b:1", false)
	}
	if m.dead("b:1") {
		t.Fatalf("%d misses after resurrection killed the peer", deadAfter-1)
	}
}
