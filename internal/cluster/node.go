package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ampsched/internal/server"
	"ampsched/internal/telemetry"
)

// Config assembles a Node. Self must be this node's address exactly
// as it appears in every peer's Peers list — ring placement hashes
// the address string, so all nodes must spell each member the same
// way.
type Config struct {
	// Self is this node's advertised host:port.
	Self string
	// Peers is the static fleet membership (host:port each); Self is
	// added if absent. Order is irrelevant.
	Peers []string
	// Heartbeat is the liveness probe cadence and per-probe timeout
	// (0 = 500ms).
	Heartbeat time.Duration
	// Telemetry receives cluster metrics; nil disables them.
	Telemetry *telemetry.Telemetry
}

const (
	// forwardTimeout bounds one submission forward to the owner; on
	// timeout or transport error the node falls back to computing
	// locally.
	forwardTimeout = 5 * time.Second
	// remoteTimeout bounds one peer cache lookup or result replication.
	remoteTimeout = 2 * time.Second
)

// Node is one fleet member: it wraps a server.Server, owns the
// node-to-node protocol, and installs the remote-lookup / publish
// hooks on the server's pair compute path. Create with New, serve
// Handler, call Start for the heartbeat, Close to stop.
type Node struct {
	srv    *server.Server
	inner  http.Handler
	cfg    Config
	mem    *membership
	client *http.Client

	mu       sync.Mutex
	fwd      map[string]string // forwarded job id -> owner address
	runCtx   context.Context
	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
	started  bool

	forwards         *telemetry.Counter
	forwardFallbacks *telemetry.Counter
	peerJobs         *telemetry.Counter
	remoteHits       *telemetry.Counter
	remoteMisses     *telemetry.Counter
	replicas         *telemetry.Counter
}

// New wraps srv as a fleet node and installs the cluster hooks on its
// compute path. The node is routable immediately; Start launches the
// heartbeat.
func New(srv *server.Server, cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self required")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	tel := cfg.Telemetry
	n := &Node{
		srv:    srv,
		inner:  srv.Handler(),
		cfg:    cfg,
		mem:    newMembership(cfg.Self, cfg.Peers, tel),
		client: &http.Client{},
		fwd:    make(map[string]string),
		stop:   make(chan struct{}),

		forwards:         tel.Counter("cluster.forwards"),
		forwardFallbacks: tel.Counter("cluster.forward_fallbacks"),
		peerJobs:         tel.Counter("cluster.peer_jobs"),
		remoteHits:       tel.Counter("cluster.remote_hits"),
		remoteMisses:     tel.Counter("cluster.remote_misses"),
		replicas:         tel.Counter("cluster.replicas"),
	}
	srv.SetCluster(n.remotePair, n.publishPair)
	return n, nil
}

// Start launches the heartbeat loop under ctx.
func (n *Node) Start(ctx context.Context) error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return fmt.Errorf("cluster: node already started")
	}
	n.started = true
	n.runCtx = ctx
	n.mu.Unlock()

	n.wg.Add(1)
	go n.heartbeatLoop(ctx)
	return nil
}

// Close stops the heartbeat, waits for in-flight replications, and
// removes the server hooks.
func (n *Node) Close() error {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	n.srv.SetCluster(nil, nil)
	return nil
}

// Ring returns the current live ring (tests, cmd/ampfleet).
func (n *Node) Ring() *Ring {
	n.mem.mu.Lock()
	defer n.mem.mu.Unlock()
	return n.mem.ring
}

// heartbeatLoop probes every peer each Heartbeat tick.
func (n *Node) heartbeatLoop(ctx context.Context) {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.Heartbeat) //ampvet:allow determinism peer liveness is inherently wall-clock
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			n.mem.heartbeat(ctx, n.probePeer)
		}
	}
}

// probePeer is the liveness probe: GET /v1/peer/health with the
// heartbeat interval as its timeout; any 200 counts as alive.
func (n *Node) probePeer(ctx context.Context, peer string) error {
	rctx, cancel := context.WithTimeout(ctx, n.cfg.Heartbeat)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, peerURL(peer, "/v1/peer/health"), nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s health: %s", peer, resp.Status)
	}
	return nil
}

// peerURL builds a node-to-node URL.
func peerURL(peer, path string) string {
	return "http://" + peer + path
}

// JobKey computes the canonical routing key for a submission: the
// hex SHA-256 of the canonically re-marshaled spec list. Every node
// (and the load generator) derives the same key for the same specs,
// so a job has exactly one owner regardless of which node receives
// it — that owner's cache singleflight is the cross-node
// singleflight.
func JobKey(specs []server.JobSpec) string {
	b, err := json.Marshal(specs)
	if err != nil {
		// JobSpec is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("cluster: marshaling job specs: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// jobRouteKey decodes a POST /v1/jobs body (single spec or JSON
// array) into its canonical routing key. Undecodable bodies return
// ok=false and are served locally, where the server produces the
// client-facing 400.
func jobRouteKey(body []byte) (string, bool) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return "", false
	}
	var specs []server.JobSpec
	if trimmed[0] == '[' {
		if json.Unmarshal(body, &specs) != nil {
			return "", false
		}
	} else {
		var sp server.JobSpec
		if json.Unmarshal(body, &sp) != nil {
			return "", false
		}
		specs = []server.JobSpec{sp}
	}
	return JobKey(specs), true
}

// Handler returns the fleet-aware mux: the public API with routing
// and proxying layered on, the /v1/peer/* node-to-node endpoints, and
// everything else (healthz, readyz, metrics) passed to the wrapped
// server.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", n.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", n.handleJobProxy)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", n.handleJobProxy)
	mux.HandleFunc("DELETE /v1/jobs/{id}", n.handleJobProxy)
	mux.HandleFunc("GET /v1/results/{key}", n.handleResult)
	mux.HandleFunc("POST /v1/peer/jobs", n.handlePeerJobs)
	mux.HandleFunc("GET /v1/peer/results/{key}", n.handlePeerResult)
	mux.HandleFunc("PUT /v1/peer/results/{key}", n.handlePeerPut)
	mux.HandleFunc("GET /v1/peer/health", n.handlePeerHealth)
	mux.Handle("/", n.inner)
	return mux
}

// serveLocal replays the (already consumed) request body into the
// wrapped server.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	n.inner.ServeHTTP(w, r2)
}

// handleSubmit routes POST /v1/jobs: the canonical job key picks the
// owner on the live ring; self-owned (or unroutable) jobs run
// locally, everything else forwards to the owner.
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		apiError(w, http.StatusBadRequest, fmt.Errorf("reading job spec: %w", err))
		return
	}
	key, ok := jobRouteKey(body)
	if !ok {
		n.serveLocal(w, r, body)
		return
	}
	owner := n.mem.owner(key)
	if owner == "" || owner == n.cfg.Self {
		n.serveLocal(w, r, body)
		return
	}
	n.forward(w, r, owner, body)
}

// forward relays a submission to the owner's peer endpoint and copies
// the owner's verdict back verbatim — status, body, and the
// Retry-After header, so the owner's queue-full backpressure reaches
// the client through the forwarding node intact. A transport
// failure (owner unreachable, forward timeout) falls back to local
// compute: byte-identical results make the detour invisible, and the
// missed probe feeds the liveness state machine.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte) {
	ctx, cancel := context.WithTimeout(r.Context(), forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peerURL(owner, "/v1/peer/jobs"), bytes.NewReader(body))
	if err != nil {
		n.serveLocal(w, r, body)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		n.forwardFallbacks.Inc()
		n.mem.observe(owner, false)
		n.serveLocal(w, r, body)
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		n.forwardFallbacks.Inc()
		n.mem.observe(owner, false)
		n.serveLocal(w, r, body)
		return
	}
	n.forwards.Inc()
	n.mem.observe(owner, true)
	if resp.StatusCode == http.StatusAccepted {
		n.recordForwarded(owner, respBody)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(respBody)
}

// recordForwarded remembers which owner acknowledged the job ids in a
// 202 body (single status or batch array), so later status, stream
// and cancel calls for those ids proxy to the node that runs them.
func (n *Node) recordForwarded(owner string, body []byte) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	var statuses []server.JobStatus
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if json.Unmarshal(body, &statuses) != nil {
			return
		}
	} else {
		var st server.JobStatus
		if json.Unmarshal(body, &st) != nil {
			return
		}
		statuses = []server.JobStatus{st}
	}
	n.mu.Lock()
	for _, st := range statuses {
		if st.ID != "" {
			n.fwd[st.ID] = owner
		}
	}
	n.mu.Unlock()
}

// forwardOwner looks up where a job id was forwarded ("" = local).
func (n *Node) forwardOwner(id string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fwd[id]
}

// handleJobProxy serves status/stream/cancel: jobs this node
// forwarded proxy to their owner (flushing streamed lines as they
// arrive); everything else is local.
func (n *Node) handleJobProxy(w http.ResponseWriter, r *http.Request) {
	owner := n.forwardOwner(r.PathValue("id"))
	if owner == "" {
		n.inner.ServeHTTP(w, r)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, peerURL(owner, r.URL.Path), nil)
	if err != nil {
		apiError(w, http.StatusBadGateway, err)
		return
	}
	resp, err := n.client.Do(req)
	if err != nil {
		n.mem.observe(owner, false)
		apiError(w, http.StatusBadGateway, fmt.Errorf("owner %s unreachable: %w", owner, err))
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	copyFlush(w, resp.Body)
}

// copyFlush streams src to w, flushing after every read so proxied
// NDJSON lines reach the client as the owner emits them.
func copyFlush(w http.ResponseWriter, src io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		nr, err := src.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleResult serves GET /v1/results/{key}, extending the local
// cache with a fleet-wide lookup: on a local miss the key's ring
// owner is asked first, then the remaining live peers; a fetched
// record is cached so the next lookup is local.
func (n *Node) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if _, ok := n.srv.Cache().Peek(key); ok {
		n.inner.ServeHTTP(w, r)
		return
	}
	for _, peer := range n.mem.lookupOrder(key) {
		rctx, cancel := context.WithTimeout(r.Context(), remoteTimeout)
		data, err := n.getPeerResult(rctx, peer, key)
		cancel()
		if err != nil {
			continue
		}
		n.srv.Cache().Put(key, data)
		break
	}
	n.inner.ServeHTTP(w, r)
}

// handlePeerJobs accepts a forwarded submission and always runs it
// locally — peer endpoints never re-forward, so a stale ring on one
// node cannot bounce a job in a cycle.
func (n *Node) handlePeerJobs(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		apiError(w, http.StatusBadRequest, fmt.Errorf("reading forwarded job spec: %w", err))
		return
	}
	n.peerJobs.Inc()
	// The inner server only knows the public route; the peer path is
	// this layer's framing.
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/v1/jobs"
	n.serveLocal(w, r2, body)
}

// handlePeerResult serves one cache entry to a peer (no recency
// touch, no fleet fan-out — this is the remote half of the fleet
// lookup and must terminate at one hop).
func (n *Node) handlePeerResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok := n.srv.Cache().Peek(key)
	if !ok {
		apiError(w, http.StatusNotFound, fmt.Errorf("no cached result %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(data)
}

// handlePeerPut accepts a pair record a publisher replicates to this
// node as the key's rendezvous owner, and caches it.
func (n *Node) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, err := io.ReadAll(r.Body)
	if err != nil || !json.Valid(data) {
		apiError(w, http.StatusBadRequest, fmt.Errorf("invalid result body for %q", key))
		return
	}
	n.srv.Cache().Put(key, data)
	w.WriteHeader(http.StatusNoContent)
}

// PeerHealth is the GET /v1/peer/health body. The heartbeat probe
// reads only the 200 status; the body names the answering node.
type PeerHealth struct {
	Self string `json:"self"`
}

// handlePeerHealth serves the heartbeat probe.
func (n *Node) handlePeerHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(PeerHealth{Self: n.cfg.Self})
}

// remotePair is the server's RemoteLookup hook, tried on every pair
// cache miss before local compute: ask the key's ring owner (the
// rendezvous every publisher replicates to) for a cached copy.
func (n *Node) remotePair(ctx context.Context, key string) ([]byte, bool) {
	owner := n.mem.owner(key)
	if owner == "" || owner == n.cfg.Self {
		return nil, false
	}
	rctx, cancel := context.WithTimeout(ctx, remoteTimeout)
	defer cancel()
	data, err := n.getPeerResult(rctx, owner, key)
	if err != nil {
		n.remoteMisses.Inc()
		return nil, false
	}
	n.remoteHits.Inc()
	return data, true
}

// publishPair is the server's ResultPublish hook: every locally
// simulated pair record is replicated (async — the compute path must
// not block on the network) to the key's ring owner, so any node's
// remote lookup finds it at the rendezvous.
func (n *Node) publishPair(key string, data []byte) {
	owner := n.mem.owner(key)
	if owner == "" || owner == n.cfg.Self {
		return
	}
	n.mu.Lock()
	ctx := n.runCtx
	n.mu.Unlock()
	if ctx == nil {
		return // Start not called; nothing to bound the send with
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		rctx, cancel := context.WithTimeout(ctx, remoteTimeout)
		defer cancel()
		if n.putPeerResult(rctx, owner, key, data) == nil {
			n.replicas.Inc()
		}
	}()
}

// getPeerResult fetches one cache entry from a peer.
func (n *Node) getPeerResult(ctx context.Context, peer, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL(peer, "/v1/peer/results/"+key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: peer %s result %s: %s", peer, key, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if !json.Valid(data) {
		return nil, fmt.Errorf("cluster: peer %s returned invalid record for %s", peer, key)
	}
	return data, nil
}

// putPeerResult sends one pair record to a peer.
func (n *Node) putPeerResult(ctx context.Context, peer, key string, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peerURL(peer, "/v1/peer/results/"+key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s refused result %s: %s", peer, key, resp.Status)
	}
	return nil
}

// apiError mirrors the server's JSON error shape.
func apiError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
