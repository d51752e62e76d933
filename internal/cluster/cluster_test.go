package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"ampsched/internal/experiments"
	"ampsched/internal/pairstore"
	"ampsched/internal/server"
	"ampsched/internal/telemetry"
)

// testOptions mirror the server suite's: tiny detailed profiling
// pass, interval-engine pairs, fast enough for loopback fleets.
func testOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.InstrLimit = 40_000
	o.ContextSwitch = 10_000
	o.ProfileInstrLimit = 30_000
	o.Fidelity = "interval"
	return o
}

// testNode is one in-process fleet member: a real Server wrapped in a
// real Node, served over a real loopback listener — the node-to-node
// protocol is HTTP, so the tests speak it for real.
type testNode struct {
	addr string
	base string
	srv  *server.Server
	node *Node
	tel  *telemetry.Telemetry
}

// startFleet boots n nodes that all know each other.
func startFleet(t testing.TB, n int, mutateSrv func(int, *server.Config)) []*testNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	fleet := make([]*testNode, n)
	for i := range fleet {
		tel := telemetry.New()
		scfg := server.Config{
			BaseOptions: testOptions(),
			Workers:     4,
			MaxPending:  16,
			Cache:       pairstore.CacheConfig{ByteBudget: 1 << 20},
			Telemetry:   tel,
			JobIDSpace:  addrs[i],
		}
		if mutateSrv != nil {
			mutateSrv(i, &scfg)
		}
		srv, err := server.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		node, err := New(srv, Config{
			Self:      addrs[i],
			Peers:     addrs,
			Heartbeat: 100 * time.Millisecond,
			Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if err := node.Start(ctx); err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: node.Handler()}
		ln := listeners[i]
		go hs.Serve(ln)
		tn := &testNode{addr: addrs[i], base: "http://" + addrs[i], srv: srv, node: node, tel: tel}
		fleet[i] = tn
		t.Cleanup(func() {
			hs.Close()
			cancel()
			if err := node.Close(); err != nil {
				t.Errorf("closing node %s: %v", tn.addr, err)
			}
			if err := srv.Close(); err != nil {
				t.Errorf("closing server %s: %v", tn.addr, err)
			}
		})
	}
	return fleet
}

// seedOwnedBy scans seeds until the job routing key lands on the
// wanted node — how tests pin which fleet member owns a submission.
func seedOwnedBy(t *testing.T, fleet []*testNode, owner int, pairs int, from uint64) uint64 {
	t.Helper()
	ring := fleet[0].node.Ring()
	for seed := from; seed < from+10_000; seed++ {
		key := JobKey([]server.JobSpec{{Pairs: pairs, Seed: seed}})
		if ring.Owner(key) == fleet[owner].addr {
			return seed
		}
	}
	t.Fatalf("no seed in [%d,%d) owned by node %d", from, from+10_000, owner)
	return 0
}

func postJob(t *testing.T, base string, spec server.JobSpec) (server.JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func waitDone(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done":
			return st
		case "failed", "canceled":
			t.Fatalf("job %s: state %q, error %q", id, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return server.JobStatus{}
}

func fetchResult(t *testing.T, base, key string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/%s = %d", key, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrossNodeSingleflight is the tentpole's acceptance test: the
// same job submitted concurrently to two different nodes must be
// simulated exactly once. Routing makes it so — both receivers derive
// the same canonical key, forward to the same owner, and the owner's
// cache singleflight collapses the two submissions into one compute.
func TestCrossNodeSingleflight(t *testing.T) {
	fleet := startFleet(t, 2, nil)
	const pairs = 3
	seed := seedOwnedBy(t, fleet, 0, pairs, 1000)
	spec := server.JobSpec{Pairs: pairs, Seed: seed}

	// Same spec, both nodes, at the same time.
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range fleet {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postJob(t, fleet[i].base, spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("node %d: POST = %d, want 202", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	sts := make([]server.JobStatus, 2)
	for i := range fleet {
		sts[i] = waitDone(t, fleet[i].base, ids[i])
	}

	// Exactly one simulation per pair, all on the owner. cache_misses
	// counts compute-closure entries — the actual simulations.
	if got := fleet[0].tel.Counter("server.cache_misses").Value(); got != pairs {
		t.Errorf("owner simulated %d pairs, want exactly %d", got, pairs)
	}
	if got := fleet[1].tel.Counter("server.cache_misses").Value(); got != 0 {
		t.Errorf("forwarder simulated %d pairs, want 0", got)
	}
	if got := fleet[1].tel.Counter("cluster.forwards").Value(); got < 1 {
		t.Errorf("cluster.forwards on the non-owner = %d, want >= 1", got)
	}
	if got := fleet[0].tel.Counter("cluster.peer_jobs").Value(); got < 1 {
		t.Errorf("cluster.peer_jobs on the owner = %d, want >= 1", got)
	}

	// Byte identity: every pair key reads the same from both nodes.
	if len(sts[0].Results) != pairs || len(sts[1].Results) != pairs {
		t.Fatalf("results = %d and %d pairs, want %d each", len(sts[0].Results), len(sts[1].Results), pairs)
	}
	for _, r := range sts[0].Results {
		if r.Key == "" {
			t.Fatal("pair result missing its content key")
		}
		a := fetchResult(t, fleet[0].base, r.Key)
		b := fetchResult(t, fleet[1].base, r.Key)
		if !bytes.Equal(a, b) {
			t.Errorf("key %s: bytes differ between nodes", r.Key)
		}
	}
}

// TestForwardPropagatesRetryAfter pins the backpressure contract
// across the forwarding hop: when the owner sheds a forwarded
// submission, the client talking to the forwarder must see the
// owner's status code and Retry-After hint verbatim.
func TestForwardPropagatesRetryAfter(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fleet backlog test in short mode")
	}
	fleet := startFleet(t, 2,
		func(i int, cfg *server.Config) {
			if i == 0 { // the owner: one worker, one pending slot
				cfg.Workers = 1
				cfg.MaxPending = 1
			}
		})

	// Slow distinct jobs, all owned by node 0, all submitted through
	// node 1: the first runs, the second fills the only pending slot,
	// and some subsequent submission must bounce with 429. Submissions
	// land microseconds apart, so a dozen pairs is plenty of runway.
	const pairs = 12
	var ids []string
	sawRetryAfter := false
	from := uint64(2000)
	for i := 0; i < 10 && !sawRetryAfter; i++ {
		seed := seedOwnedBy(t, fleet, 0, pairs, from)
		from = seed + 1
		st, resp := postJob(t, fleet[1].base, server.JobSpec{Pairs: pairs, Seed: seed})
		switch resp.StatusCode {
		case http.StatusAccepted:
			ids = append(ids, st.ID)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatalf("overload status %d arrived without Retry-After", resp.StatusCode)
			}
			sawRetryAfter = true
		default:
			t.Fatalf("POST = %d, want 202 or 429/503", resp.StatusCode)
		}
	}
	if !sawRetryAfter {
		t.Fatal("owner never shed a forwarded submission (queue too fast?)")
	}
	if got := fleet[1].tel.Counter("cluster.forwards").Value(); got < 2 {
		t.Errorf("cluster.forwards = %d, want >= 2 (accepted and shed submissions both forwarded)", got)
	}
	for _, id := range ids {
		waitDone(t, fleet[1].base, id)
	}
}

// TestRemoteResultLookup computes a job on its owner and reads a pair
// record through the other node, which must fetch it from the peer
// (counted as a remote hit) rather than 404ing.
func TestRemoteResultLookup(t *testing.T) {
	fleet := startFleet(t, 2, nil)
	const pairs = 2
	seed := seedOwnedBy(t, fleet, 0, pairs, 4000)
	st, resp := postJob(t, fleet[0].base, server.JobSpec{Pairs: pairs, Seed: seed})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", resp.StatusCode)
	}
	done := waitDone(t, fleet[0].base, st.ID)
	for _, r := range done.Results {
		a := fetchResult(t, fleet[0].base, r.Key)
		b := fetchResult(t, fleet[1].base, r.Key)
		if !bytes.Equal(a, b) {
			t.Errorf("key %s: bytes differ across nodes", r.Key)
		}
	}
}
