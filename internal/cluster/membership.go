package cluster

import (
	"context"
	"sort"
	"sync"

	"ampsched/internal/telemetry"
)

// deadAfter is the consecutive missed probes (or failed forwards)
// after which a peer is dead: off the ring, its keys re-routed to
// successors until a heartbeat answers again. Fewer misses leave
// routing untouched — a transient blip should not reshuffle ownership.
const deadAfter = 4

// membership tracks static fleet membership plus dynamic liveness,
// and owns the live ring rebuilt on every alive<->dead transition.
// Static membership means the peer set never grows or shrinks; a peer
// is alive or, after deadAfter consecutive misses, dead.
type membership struct {
	self  string
	peers []string // sorted, includes self

	mu     sync.Mutex
	misses map[string]int // consecutive misses of each peer but self
	ring   *Ring

	rebuilds *telemetry.Counter
	deaths   *telemetry.Counter
}

func newMembership(self string, peers []string, tel *telemetry.Telemetry) *membership {
	m := &membership{
		self:     self,
		misses:   make(map[string]int),
		rebuilds: tel.Counter("cluster.ring_rebuilds"),
		deaths:   tel.Counter("cluster.peer_deaths"),
	}
	seen := map[string]bool{self: true}
	m.peers = []string{self}
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		m.peers = append(m.peers, p)
		m.misses[p] = 0
	}
	sort.Strings(m.peers)
	m.ring = NewRing(m.peers)
	return m
}

// owner returns the live-ring owner of key ("" on an empty ring,
// which cannot happen in practice: self is always a member).
func (m *membership) owner(key string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring.Owner(key)
}

// lookupOrder returns every non-dead peer except self in ownership
// order for key: the key's ring successors first, then any remaining
// live peers — the sequence a remote result lookup should try.
func (m *membership) lookupOrder(key string) []string {
	m.mu.Lock()
	ring := m.ring
	live := m.livePeersLocked()
	m.mu.Unlock()
	ranked := ring.Owners(key, len(m.peers))
	out := make([]string, 0, len(live))
	seen := make(map[string]bool, len(live))
	isLive := make(map[string]bool, len(live))
	for _, p := range live {
		isLive[p] = true
	}
	for _, p := range ranked {
		if p != m.self && isLive[p] && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, p := range live {
		if !seen[p] {
			out = append(out, p)
		}
	}
	return out
}

// livePeersLocked returns every non-dead peer except self, sorted.
// Callers hold m.mu.
func (m *membership) livePeersLocked() []string {
	out := make([]string, 0, len(m.peers))
	for _, p := range m.peers {
		if p == m.self {
			continue
		}
		if m.misses[p] < deadAfter {
			out = append(out, p)
		}
	}
	return out
}

// allPeers returns every peer except self, sorted — heartbeats probe
// dead peers too, so a restarted node rejoins the ring.
func (m *membership) allPeers() []string {
	out := make([]string, 0, len(m.peers))
	for _, p := range m.peers {
		if p != m.self {
			out = append(out, p)
		}
	}
	return out
}

// dead reports whether peer is dead.
func (m *membership) dead(peer string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.misses[peer] >= deadAfter
}

// observe records one probe (or forward) outcome for peer: an answer
// zeroes its miss count, a miss adds one, and the live ring is rebuilt
// when the peer dies or comes back.
func (m *membership) observe(peer string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, known := m.misses[peer]
	if !known {
		return
	}
	if ok {
		m.misses[peer] = 0
		if n >= deadAfter {
			m.rebuildLocked()
		}
		return
	}
	m.misses[peer] = n + 1
	if n+1 == deadAfter {
		m.deaths.Inc()
		m.rebuildLocked()
	}
}

// rebuildLocked recomputes the live ring from non-dead members.
// Callers hold m.mu.
func (m *membership) rebuildLocked() {
	members := make([]string, 0, len(m.peers))
	for _, p := range m.peers {
		if m.misses[p] < deadAfter {
			members = append(members, p)
		}
	}
	m.ring = NewRing(members)
	m.rebuilds.Inc()
}

// heartbeat runs one probe round: every peer (dead ones too, so they
// can rejoin) is probed and the outcome fed to the state machine.
func (m *membership) heartbeat(ctx context.Context, probe func(ctx context.Context, peer string) error) {
	for _, p := range m.allPeers() {
		if ctx.Err() != nil {
			return
		}
		m.observe(p, probe(ctx, p) == nil)
	}
}
