package cluster

import (
	"context"
	"sort"
	"sync"

	"ampsched/internal/telemetry"
)

// peerState is a peer's liveness classification.
type peerState int

const (
	// peerAlive: heartbeats answered; full routing target.
	peerAlive peerState = iota
	// peerSuspect: missed probes, below the death threshold. Still on
	// the ring — a transient blip should not reshuffle ownership — but
	// forwards to it may fail over to local compute.
	peerSuspect
	// peerDead: consistently unreachable. Off the ring; its keys
	// re-route to successors until a heartbeat answers again.
	peerDead
)

// suspectAfter / deadAfter are the consecutive missed probes before a
// peer is marked suspect / dead.
const (
	suspectAfter = 2
	deadAfter    = 4
)

// membership tracks static fleet membership plus dynamic liveness,
// and owns the live ring rebuilt on every alive<->dead transition.
// Static membership means the peer set never grows or shrinks; nodes
// only move between alive, suspect and dead.
type membership struct {
	self   string
	peers  []string // sorted, includes self
	vnodes int

	mu     sync.Mutex
	misses map[string]int
	states map[string]peerState
	ring   *Ring

	rebuilds *telemetry.Counter
	suspects *telemetry.Counter
	deaths   *telemetry.Counter
}

func newMembership(self string, peers []string, vnodes int, tel *telemetry.Telemetry) *membership {
	m := &membership{
		self:     self,
		vnodes:   vnodes,
		misses:   make(map[string]int),
		states:   make(map[string]peerState),
		rebuilds: tel.Counter("cluster.ring_rebuilds"),
		suspects: tel.Counter("cluster.peer_suspects"),
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
		m.states[p] = peerAlive
	}
	sort.Strings(m.peers)
	m.ring = NewRing(m.peers, m.vnodes)
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
		if m.states[p] != peerDead {
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

// state returns the peer's current classification.
func (m *membership) state(peer string) peerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states[peer]
}

// observe records one probe (or forward) outcome for peer and applies
// the alive → suspect → dead state machine, rebuilding the live ring
// when ring membership changes.
func (m *membership) observe(peer string, ok bool) {
	if peer == m.self {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	prev, known := m.states[peer]
	if !known {
		return
	}
	if ok {
		m.misses[peer] = 0
		if prev != peerAlive {
			m.states[peer] = peerAlive
			if prev == peerDead {
				m.rebuildLocked()
			}
		}
		return
	}
	m.misses[peer]++
	switch {
	case m.misses[peer] >= deadAfter && prev != peerDead:
		m.states[peer] = peerDead
		m.deaths.Inc()
		m.rebuildLocked()
	case m.misses[peer] >= suspectAfter && prev == peerAlive:
		m.states[peer] = peerSuspect
		m.suspects.Inc()
	}
}

// rebuildLocked recomputes the live ring from non-dead members.
// Callers hold m.mu.
func (m *membership) rebuildLocked() {
	members := make([]string, 0, len(m.peers))
	for _, p := range m.peers {
		if p == m.self || m.states[p] != peerDead {
			members = append(members, p)
		}
	}
	m.ring = NewRing(members, m.vnodes)
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
