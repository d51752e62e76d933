// Package cluster turns ampserve into a fleet: a consistent-hash
// ring routes every canonical job key to an owner node, a small
// node-to-node HTTP protocol (/v1/peer/...) forwards submissions to
// the owner and shares cached results, and a heartbeat layer marks
// unreachable peers dead and re-routes around them.
//
// The design leans entirely on the server's content-addressed cache:
// a pair record's bytes are a pure function of its KeySpec, so it
// does not matter which node simulates a pair — owner or forwarder
// fallback — the bytes are identical and any copy is authoritative.
// Cross-node singleflight follows from routing: both receivers of one
// job key forward to the same owner, whose cache singleflight
// collapses the concurrent computations into one simulation.
//
// Telemetry (under "cluster."): forwards, forward_fallbacks,
// peer_jobs, remote_hits, remote_misses, replicas, ring_rebuilds,
// peer_deaths.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// vnodes is the virtual-node count per peer. 64 points per node keeps
// the expected ownership imbalance of a 3-node fleet within a few
// percent while the ring stays tiny (192 points).
const vnodes = 64

// ringPoint is one virtual node's position on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring. Placement is a pure
// function of the member list — every node that agrees on membership
// derives the identical ring, so routing needs no coordination.
type Ring struct {
	points []ringPoint
	nodes  []string
}

// hash64 is the ring's placement and lookup hash: the first 8 bytes
// of SHA-256, the same family the server's content addresses use, so
// placement is seeded/deterministic across processes and platforms
// (no runtime map seeds, no process-local hash state).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds the ring for the given members. Duplicates are
// collapsed and order is irrelevant — callers on different nodes pass
// their peer lists in any order and still agree. An empty member list
// yields a ring whose lookups return "".
func NewRing(nodes []string) *Ring {
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for _, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between members is vanishingly rare but
		// must still break deterministically on every node.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's point. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(hash64(key))].node
}

// Owners returns up to n distinct members in ownership order for key:
// the owner first, then the successors a lookup should try next. This
// is also the replica placement order for result rendezvous.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	idx := r.successor(hash64(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(idx+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, p.node)
	}
	return out
}

// successor finds the index of the first point at or after h,
// wrapping past the top of the circle.
func (r *Ring) successor(h uint64) int {
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0
	}
	return idx
}
