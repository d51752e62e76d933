// Command ampfleet is the distributed-mode smoke harness for
// ampserve: it boots a three-node fleet, proves cross-node routing is
// doing real work, SIGKILLs one node mid-load, and requires the
// survivors to re-route around the corpse, drain cleanly, and produce
// results byte-identical to a single-node run that never clustered at
// all.
//
// Phases:
//
//  1. Boot: three ampserve processes on one machine, each given the
//     full peer list (-peers) and fast heartbeats.
//  2. Load: spray a batch of jobs round-robin across all nodes with a
//     skewed key distribution (half pin the hottest seed), wait for
//     every job, and record each pair's result bytes. Every key is
//     also fetched from a node that did not run the job — the remote
//     result lookup path. Requires cluster.forwards > 0 somewhere:
//     the ring actually routed work between nodes. Exactly-once: if
//     no node saw a ring rebuild or a forward fallback, the fleet's
//     server.batched_pairs (pairs handed to the simulator) must equal
//     the number of distinct pair keys.
//  3. Chaos: submit another batch across all three nodes and SIGKILL
//     node 3 while it is in flight. Jobs stranded on the dead node
//     (submitted or forwarded to it) are resubmitted to a survivor —
//     the content-addressed cache makes the retry cheap and safe.
//     The survivors must mark the corpse dead (cluster.ring_rebuilds
//     >= 1), keep answering submissions, and then drain cleanly on
//     SIGTERM (exit 0).
//  4. Oracle: a fresh single node (no -peers, no cluster layer) runs
//     the same specs; every recorded pair result must be
//     byte-identical. Compute location — owner or forward fallback —
//     must be unobservable in the bytes.
//
// Servers are started and driven through internal/serveclient; every
// server the harness started is killed on the way out, failure
// included.
//
// Usage (see `make fleet-smoke`):
//
//	ampfleet -ampserve bin/ampserve [-jobs 18] [-v]
//
// Exit status is non-zero on the first violated invariant.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"ampsched/internal/serveclient"
	"ampsched/internal/server"
)

var (
	ampserve = flag.String("ampserve", "bin/ampserve", "path to the ampserve binary under test")
	workdir  = flag.String("workdir", "", "scratch directory (default: a fresh temp dir)")
	jobsN    = flag.Int("jobs", 18, "phase-2 load batch size")
	pairs    = flag.Int("pairs", 3, "pairs per job (hot jobs use 2x)")
	timeout  = flag.Duration("timeout", 4*time.Minute, "overall harness deadline")
	verbose  = flag.Bool("v", false, "pass server stderr through and log each check")
)

const (
	hotSeed  = 500 // the skewed half of the load batch pins this seed
	coldSeed = 600
	bSeed    = 700 // chaos batch
	postSeed = 800 // post-death probe batch
)

func main() {
	flag.Parse()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	err := run(ctx)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ampfleet: FAIL:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	if *jobsN < 6 {
		return fmt.Errorf("-jobs must be >= 6 (need hot and cold keys on every node)")
	}
	dir := *workdir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "ampfleet-*"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l := &serveclient.Launcher{Bin: *ampserve, Dir: dir}
	if *verbose {
		l.Out = os.Stderr
	}
	defer l.Close()
	// start launches one node with small, fast simulation parameters.
	// They must match across every node and the oracle: content
	// addresses hash them.
	start := func(name, addr string, extra ...string) (*serveclient.Proc, error) {
		return l.Start(ctx, name, addr, append([]string{
			"-journaldir", filepath.Join(dir, name+"-journal"),
			"-cachedir", filepath.Join(dir, name+"-cache"),
			"-flushevery", "100ms",
			"-limit", "40000", "-contextswitch", "10000",
			"-profilelimit", "30000", "-fidelity", "interval",
		}, extra...)...)
	}

	// ---- Phase 1: boot the fleet ---------------------------------------
	addrs, err := serveclient.FreeAddrs(3)
	if err != nil {
		return err
	}
	peerList := strings.Join(addrs, ",")
	logf("phase 1: booting 3 nodes: %s", peerList)
	fleet := make([]*serveclient.Proc, 3)
	for i, a := range addrs {
		fleet[i], err = start(fmt.Sprintf("n%d", i+1), a,
			"-peers", peerList,
			"-heartbeat", "200ms",
			"-workers", "2",
		)
		if err != nil {
			return err
		}
	}

	// ---- Phase 2: skewed fleet load ------------------------------------
	type tracked struct {
		spec server.JobSpec
		node int // submission target
		id   string
	}
	specFor := func(i int) server.JobSpec {
		if i%2 == 0 {
			return server.JobSpec{Pairs: 2 * *pairs, Seed: hotSeed}
		}
		return server.JobSpec{Pairs: *pairs, Seed: coldSeed + uint64(i)}
	}
	var load []tracked
	for i := 0; i < *jobsN; i++ {
		tr := tracked{spec: specFor(i), node: i % 3}
		ack, err := fleet[tr.node].Submit(ctx, tr.spec)
		if err != nil {
			return fmt.Errorf("phase 2 submit %d via n%d: %w", i, tr.node+1, err)
		}
		tr.id = ack.ID
		load = append(load, tr)
	}
	logf("phase 2: %d jobs sprayed (half pinned to seed %d)", len(load), hotSeed)

	results := map[string][]byte{}    // pair key -> raw record bytes
	specKeys := map[uint64][]string{} // seed -> sorted pair keys
	for _, tr := range load {
		st, err := fleet[tr.node].Wait(ctx, tr.id)
		if err != nil {
			return fmt.Errorf("phase 2 job %s on n%d: %w", tr.id, tr.node+1, err)
		}
		if st.State != "done" {
			return fmt.Errorf("phase 2 job %s (seed %d): state %q, error %q", tr.id, tr.spec.Seed, st.State, st.Error)
		}
		if err := recordResults(ctx, fleet[tr.node].Client, st, tr.spec.Seed, results, specKeys); err != nil {
			return fmt.Errorf("phase 2: %w", err)
		}
		// Remote lookup check: the same key fetched from a node the job
		// was not submitted to must return the identical bytes.
		other := fleet[(tr.node+1)%3]
		for _, r := range st.Results {
			if r.Key == "" || r.Failed {
				continue
			}
			data, err := other.Result(ctx, r.Key)
			if err != nil {
				return fmt.Errorf("phase 2: key %s unreachable via peer: %w", r.Key, err)
			}
			if !bytes.Equal(data, results[r.Key]) {
				return fmt.Errorf("phase 2: key %s differs between nodes", r.Key)
			}
		}
	}
	c := map[string]float64{} // every counter, summed over the fleet
	for _, p := range fleet {
		m, err := p.Metrics(ctx)
		if err != nil {
			return fmt.Errorf("phase 2: %w", err)
		}
		for name, v := range m {
			c[name] += v.Value
		}
	}
	forwards, sims, keys := c["cluster.forwards"], c["server.batched_pairs"], len(results)
	logf("phase 2: forwards=%.0f remote_hits=%.0f simulations=%.0f over %d keys (ring_rebuilds=%.0f forward_fallbacks=%.0f)",
		forwards, c["cluster.remote_hits"], sims, keys, c["cluster.ring_rebuilds"], c["cluster.forward_fallbacks"])
	if forwards < 1 {
		return fmt.Errorf("phase 2: cluster.forwards = 0 — the ring never routed work between nodes")
	}
	if c["cluster.ring_rebuilds"] == 0 && c["cluster.forward_fallbacks"] == 0 {
		if sims != float64(keys) {
			return fmt.Errorf("phase 2: %.0f simulations for %d distinct pair keys with no failures — each key must be simulated exactly once", sims, keys)
		}
		logf("phase 2: exactly-once holds")
	} else {
		logf("phase 2: exactly-once check skipped: a ring rebuild or forward fallback may legitimately re-simulate")
	}

	// ---- Phase 3: kill one node mid-load -------------------------------
	nB := 6
	var batchB []tracked
	for i := 0; i < nB; i++ {
		tr := tracked{spec: server.JobSpec{Pairs: *pairs, Seed: bSeed + uint64(i)}, node: i % 3}
		ack, err := fleet[tr.node].Submit(ctx, tr.spec)
		if err != nil {
			return fmt.Errorf("phase 3 submit %d via n%d: %w", i, tr.node+1, err)
		}
		tr.id = ack.ID
		batchB = append(batchB, tr)
	}
	logf("phase 3: SIGKILL n3 with %d jobs in flight", nB)
	fleet[2].Kill()

	for _, tr := range batchB {
		node, st, err := waitOrResubmit(ctx, fleet, tr.node, tr.id, tr.spec)
		if err != nil {
			return fmt.Errorf("phase 3 job seed %d: %w", tr.spec.Seed, err)
		}
		if err := recordResults(ctx, node, st, tr.spec.Seed, results, specKeys); err != nil {
			return fmt.Errorf("phase 3: %w", err)
		}
	}

	// Survivors must detect the death and rebuild the ring.
	for i := 0; i < 2; i++ {
		for {
			m, err := fleet[i].Metrics(ctx)
			if err == nil && m["cluster.ring_rebuilds"].Value >= 1 {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("phase 3: n%d never rebuilt the ring after n3 died", i+1)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	logf("phase 3: both survivors rebuilt the ring around n3")

	// Post-death probe: both survivors still accept and finish work.
	for i := 0; i < 2; i++ {
		spec := server.JobSpec{Pairs: *pairs, Seed: postSeed + uint64(i)}
		st, err := fleet[i].Run(ctx, spec)
		if err != nil || st.State != "done" {
			return fmt.Errorf("phase 3 post-death job on n%d: state %q, err %v", i+1, st.State, err)
		}
		if err := recordResults(ctx, fleet[i].Client, st, spec.Seed, results, specKeys); err != nil {
			return fmt.Errorf("phase 3: %w", err)
		}
	}

	// Survivors drain cleanly: SIGTERM, exit 0.
	for i := 0; i < 2; i++ {
		if err := fleet[i].Stop(ctx); err != nil {
			return fmt.Errorf("phase 3: n%d unclean drain: %w", i+1, err)
		}
	}
	logf("phase 3: survivors drained cleanly")

	// ---- Phase 4: single-node oracle -----------------------------------
	logf("phase 4: single-node oracle, same specs, no cluster layer")
	oracle, err := start("oracle", "")
	if err != nil {
		return err
	}

	seeds := make([]uint64, 0, len(specKeys))
	for s := range specKeys {
		seeds = append(seeds, s)
	}
	slices.Sort(seeds)
	checked := 0
	for _, seed := range seeds {
		spec := server.JobSpec{Pairs: *pairs, Seed: seed}
		if seed == hotSeed {
			spec.Pairs = 2 * *pairs
		}
		st, err := oracle.Run(ctx, spec)
		if err != nil || st.State != "done" {
			return fmt.Errorf("phase 4 job seed %d: state %q, err %v", seed, st.State, err)
		}
		var keys []string
		for _, r := range st.Results {
			if r.Key == "" {
				continue
			}
			keys = append(keys, r.Key)
			want, ok := results[r.Key]
			if !ok {
				return fmt.Errorf("phase 4: oracle produced key %s the fleet never did (seed %d)", r.Key, seed)
			}
			data, err := oracle.Result(ctx, r.Key)
			if err != nil {
				return fmt.Errorf("phase 4: %w", err)
			}
			if !bytes.Equal(data, want) {
				return fmt.Errorf("phase 4: result %s differs between fleet and single node", r.Key)
			}
			checked++
		}
		slices.Sort(keys)
		if want := specKeys[seed]; !slices.Equal(keys, want) {
			return fmt.Errorf("phase 4: seed %d produced keys %v, fleet had %v", seed, keys, want)
		}
	}
	if err := oracle.Stop(ctx); err != nil {
		return fmt.Errorf("phase 4 graceful stop: %w", err)
	}

	fmt.Printf("fleet-smoke PASS: %d jobs across 3 nodes, %.0f forwards, %.0f phase-2 simulations for %d keys, 1 node killed, %d pair results byte-identical to single-node oracle\n",
		len(load)+nB+2, forwards, sims, keys, checked)
	return nil
}

// waitOrResubmit waits for a job on its submission node; if the node
// (or the owner it proxies to) is dead, the spec is resubmitted to the
// first survivor — the client-side retry story for a fleet without
// job-state replication. Content addressing makes the retry safe:
// recomputed pairs land on the same keys with the same bytes. It
// returns the node whose status it returns, so result bytes are
// fetched from a node that answers.
func waitOrResubmit(ctx context.Context, fleet []*serveclient.Proc, node int, id string, spec server.JobSpec) (*serveclient.Client, server.JobStatus, error) {
	if node != 2 { // submission node survives; owner may not
		st, err := waitTolerant(ctx, fleet[node].Client, id)
		if err == nil && st.State == "done" {
			return fleet[node].Client, st, nil
		}
	}
	survivor := fleet[0].Client
	st, err := survivor.Run(ctx, spec)
	if err != nil {
		return nil, st, fmt.Errorf("resubmit: %w", err)
	}
	if st.State != "done" {
		return nil, st, fmt.Errorf("resubmitted job %s: state %q, error %q", st.ID, st.State, st.Error)
	}
	return survivor, st, nil
}

// waitTolerant is Client.Wait that takes only the fifth failed read
// (transport or proxy errors) as the verdict "this job is stranded on
// a dead node", instead of the first.
func waitTolerant(ctx context.Context, c *serveclient.Client, id string) (server.JobStatus, error) {
	for fails := 1; ; fails++ {
		st, err := c.Wait(ctx, id)
		if err == nil || ctx.Err() != nil || fails == 5 {
			return st, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// recordResults files every successful pair of st into the shared
// byte and key-set maps, requiring cross-job byte agreement on
// shared keys.
func recordResults(ctx context.Context, c *serveclient.Client, st server.JobStatus, seed uint64, results map[string][]byte, specKeys map[uint64][]string) error {
	var keys []string
	for _, r := range st.Results {
		if r.Failed || r.Key == "" {
			continue
		}
		data, err := c.Result(ctx, r.Key)
		if err != nil {
			return err
		}
		if prev, ok := results[r.Key]; ok && !bytes.Equal(prev, data) {
			return fmt.Errorf("key %s changed bytes between jobs", r.Key)
		}
		results[r.Key] = data
		keys = append(keys, r.Key)
	}
	slices.Sort(keys)
	if prev, ok := specKeys[seed]; ok {
		if !slices.Equal(prev, keys) {
			return fmt.Errorf("seed %d produced keys %v, previously %v", seed, keys, prev)
		}
	} else {
		specKeys[seed] = keys
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ampfleet: "+format+"\n", args...)
}
