// Fleet seams: the narrow surface internal/cluster builds on. The
// cluster layer wraps a Server without reaching into its internals:
// it installs two hooks on the pair compute path (SetCluster) and
// namespaces minted job ids (Config.JobIDSpace). Both preserve the
// server's core invariant: cache bytes are a pure function of the
// KeySpec, so a record fetched from a peer or computed locally is
// byte-identical.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
)

// jobIDPrefix derives the minted-id namespace from Config.JobIDSpace:
// "" stays "" (bare sequential ids, the single-node format), anything
// else becomes an 8-hex-char digest plus "-". Hashing keeps node
// addresses — colons, dots — out of URL path segments while two
// distinct nodes still get distinct prefixes.
func jobIDPrefix(space string) string {
	if space == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(space))
	return hex.EncodeToString(sum[:4]) + "-"
}

// RemoteLookup is consulted on a pair cache miss before local
// compute: given the pair's content address it may return the record
// bytes from a peer's cache. Returning ok=false falls through to
// local compute. It runs inside the cache's singleflight, so
// concurrent requests for one key cost one lookup.
type RemoteLookup func(ctx context.Context, key string) ([]byte, bool)

// ResultPublish receives every locally simulated pair record (never
// cache hits or remote fetches) so the cluster layer can replicate it
// to the key's rendezvous owner. It must not block: the compute path
// holds the cache singleflight for this key while it runs.
type ResultPublish func(key string, data []byte)

// SetCluster installs (or, with nils, removes) the fleet hooks.
// Safe to call while jobs are running — journal recovery re-enqueues
// jobs before cmd/ampserve can wire the cluster, so the hooks are
// read under the server lock at each pair.
func (s *Server) SetCluster(remote RemoteLookup, publish ResultPublish) {
	s.mu.Lock()
	s.remote = remote
	s.publish = publish
	s.mu.Unlock()
}

// clusterHooks snapshots the installed hooks.
func (s *Server) clusterHooks() (RemoteLookup, ResultPublish) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remote, s.publish
}
