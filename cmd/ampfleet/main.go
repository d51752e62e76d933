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
// Usage (see `make fleet-smoke`):
//
//	ampfleet -ampserve bin/ampserve [-jobs 18] [-v]
//
// Exit status is non-zero on the first violated invariant.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var (
	ampserve = flag.String("ampserve", "bin/ampserve", "path to the ampserve binary under test")
	workdir  = flag.String("workdir", "", "scratch directory (default: a fresh temp dir)")
	jobsN    = flag.Int("jobs", 18, "phase-2 load batch size")
	pairs    = flag.Int("pairs", 3, "pairs per job (hot jobs use 2x)")
	timeout  = flag.Duration("timeout", 4*time.Minute, "overall harness deadline")
	verbose  = flag.Bool("v", false, "pass server stderr through and log each check")
)

var deadline time.Time

// procs tracks every child server so fatal (os.Exit skips defers)
// still reaps them instead of leaking daemons into CI.
var procs []*proc

const (
	hotSeed  = 500 // the skewed half of the load batch pins this seed
	coldSeed = 600
	bSeed    = 700 // chaos batch
	postSeed = 800 // post-death probe batch
)

func main() {
	flag.Parse()
	if *jobsN < 6 {
		fatal(fmt.Errorf("-jobs must be >= 6 (need hot and cold keys on every node)"))
	}
	deadline = time.Now().Add(*timeout)

	dir := *workdir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "ampfleet-*"); err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}

	// ---- Phase 1: boot the fleet ---------------------------------------
	addrs, err := freeAddrs(3)
	if err != nil {
		fatal(err)
	}
	peerList := strings.Join(addrs, ",")
	logf("phase 1: booting 3 nodes: %s", peerList)
	fleet := make([]*proc, 3)
	for i, a := range addrs {
		name := fmt.Sprintf("n%d", i+1)
		fleet[i], err = startServer(dir, name, a,
			"-peers", peerList,
			"-heartbeat", "200ms",
			"-workers", "2",
		)
		if err != nil {
			fatal(err)
		}
		defer fleet[i].kill()
	}

	// ---- Phase 2: skewed fleet load ------------------------------------
	type tracked struct {
		spec jobSpec
		node int // submission target
		id   string
	}
	specFor := func(i int) jobSpec {
		if i%2 == 0 {
			return jobSpec{Pairs: 2 * *pairs, Seed: hotSeed}
		}
		return jobSpec{Pairs: *pairs, Seed: coldSeed + uint64(i)}
	}
	var load []tracked
	for i := 0; i < *jobsN; i++ {
		tr := tracked{spec: specFor(i), node: i % 3}
		if tr.id, err = submit(fleet[tr.node].base, tr.spec); err != nil {
			fatal(fmt.Errorf("phase 2 submit %d via n%d: %w", i, tr.node+1, err))
		}
		load = append(load, tr)
	}
	logf("phase 2: %d jobs sprayed (half pinned to seed %d)", len(load), hotSeed)

	results := map[string][]byte{}    // pair key -> raw record bytes
	specKeys := map[uint64][]string{} // seed -> sorted pair keys
	for _, tr := range load {
		st, err := waitTerminal(fleet[tr.node].base, tr.id)
		if err != nil {
			fatal(fmt.Errorf("phase 2 job %s on n%d: %w", tr.id, tr.node+1, err))
		}
		if st.State != "done" {
			fatal(fmt.Errorf("phase 2 job %s (seed %d): state %q, error %q", tr.id, tr.spec.Seed, st.State, st.Error))
		}
		if err := recordResults(fleet[tr.node].base, st, tr.spec.Seed, results, specKeys); err != nil {
			fatal(fmt.Errorf("phase 2: %w", err))
		}
		// Remote lookup check: the same key fetched from a node the job
		// was not submitted to must return the identical bytes.
		other := fleet[(tr.node+1)%3]
		for _, r := range st.Results {
			if r.Key == "" || r.Failed {
				continue
			}
			data, err := fetchResult(other.base, r.Key)
			if err != nil {
				fatal(fmt.Errorf("phase 2: key %s unreachable via peer: %w", r.Key, err))
			}
			if !bytes.Equal(data, results[r.Key]) {
				fatal(fmt.Errorf("phase 2: key %s differs between nodes", r.Key))
			}
		}
	}
	c, err := fleetSums(fleet, "cluster.forwards", "cluster.remote_hits", "server.batched_pairs",
		"cluster.ring_rebuilds", "cluster.forward_fallbacks")
	if err != nil {
		fatal(fmt.Errorf("phase 2: %w", err))
	}
	forwards, sims, keys := c["cluster.forwards"], c["server.batched_pairs"], len(results)
	logf("phase 2: forwards=%.0f remote_hits=%.0f simulations=%.0f over %d keys (ring_rebuilds=%.0f forward_fallbacks=%.0f)",
		forwards, c["cluster.remote_hits"], sims, keys, c["cluster.ring_rebuilds"], c["cluster.forward_fallbacks"])
	if forwards < 1 {
		fatal(fmt.Errorf("phase 2: cluster.forwards = 0 — the ring never routed work between nodes"))
	}
	if c["cluster.ring_rebuilds"] == 0 && c["cluster.forward_fallbacks"] == 0 {
		if sims != float64(keys) {
			fatal(fmt.Errorf("phase 2: %.0f simulations for %d distinct pair keys with no failures — each key must be simulated exactly once", sims, keys))
		}
		logf("phase 2: exactly-once holds")
	} else {
		logf("phase 2: exactly-once check skipped: a ring rebuild or forward fallback may legitimately re-simulate")
	}

	// ---- Phase 3: kill one node mid-load -------------------------------
	nB := 6
	var batchB []tracked
	for i := 0; i < nB; i++ {
		tr := tracked{spec: jobSpec{Pairs: *pairs, Seed: bSeed + uint64(i)}, node: i % 3}
		if tr.id, err = submit(fleet[tr.node].base, tr.spec); err != nil {
			fatal(fmt.Errorf("phase 3 submit %d via n%d: %w", i, tr.node+1, err))
		}
		batchB = append(batchB, tr)
	}
	logf("phase 3: SIGKILL n3 with %d jobs in flight", nB)
	fleet[2].kill()

	for _, tr := range batchB {
		st, err := waitOrResubmit(fleet, tr.node, tr.id, tr.spec)
		if err != nil {
			fatal(fmt.Errorf("phase 3 job seed %d: %w", tr.spec.Seed, err))
		}
		if err := recordResults(st.base, st.status, tr.spec.Seed, results, specKeys); err != nil {
			fatal(fmt.Errorf("phase 3: %w", err))
		}
	}

	// Survivors must detect the death and rebuild the ring.
	for i := 0; i < 2; i++ {
		for {
			rebuilds, err := metricValue(fleet[i].base, "cluster.ring_rebuilds")
			if err == nil && rebuilds >= 1 {
				break
			}
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("phase 3: n%d never rebuilt the ring after n3 died", i+1))
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	logf("phase 3: both survivors rebuilt the ring around n3")

	// Post-death probe: both survivors still accept and finish work.
	for i := 0; i < 2; i++ {
		spec := jobSpec{Pairs: *pairs, Seed: postSeed + uint64(i)}
		id, err := submit(fleet[i].base, spec)
		if err != nil {
			fatal(fmt.Errorf("phase 3 post-death submit via n%d: %w", i+1, err))
		}
		st, err := waitTerminal(fleet[i].base, id)
		if err != nil || st.State != "done" {
			fatal(fmt.Errorf("phase 3 post-death job on n%d: state %q, err %v", i+1, st.State, err))
		}
		if err := recordResults(fleet[i].base, st, spec.Seed, results, specKeys); err != nil {
			fatal(fmt.Errorf("phase 3: %w", err))
		}
	}

	// Survivors drain cleanly: SIGTERM, exit 0.
	for i := 0; i < 2; i++ {
		if err := fleet[i].stop(); err != nil {
			fatal(fmt.Errorf("phase 3: n%d unclean drain: %w", i+1, err))
		}
	}
	logf("phase 3: survivors drained cleanly")

	// ---- Phase 4: single-node oracle -----------------------------------
	logf("phase 4: single-node oracle, same specs, no cluster layer")
	oracleAddrs, err := freeAddrs(1)
	if err != nil {
		fatal(err)
	}
	oracle, err := startServer(dir, "oracle", oracleAddrs[0])
	if err != nil {
		fatal(err)
	}
	defer oracle.kill()

	seeds := make([]uint64, 0, len(specKeys))
	for s := range specKeys {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	checked := 0
	for _, seed := range seeds {
		spec := jobSpec{Pairs: *pairs, Seed: seed}
		if seed == hotSeed {
			spec.Pairs = 2 * *pairs
		}
		id, err := submit(oracle.base, spec)
		if err != nil {
			fatal(fmt.Errorf("phase 4 submit seed %d: %w", seed, err))
		}
		st, err := waitTerminal(oracle.base, id)
		if err != nil || st.State != "done" {
			fatal(fmt.Errorf("phase 4 job seed %d: state %q, err %v", seed, st.State, err))
		}
		var keys []string
		for _, r := range st.Results {
			if r.Key == "" {
				continue
			}
			keys = append(keys, r.Key)
			want, ok := results[r.Key]
			if !ok {
				fatal(fmt.Errorf("phase 4: oracle produced key %s the fleet never did (seed %d)", r.Key, seed))
			}
			data, err := fetchResult(oracle.base, r.Key)
			if err != nil {
				fatal(fmt.Errorf("phase 4 result %s: %w", r.Key, err))
			}
			if !bytes.Equal(data, want) {
				fatal(fmt.Errorf("phase 4: result %s differs between fleet and single node", r.Key))
			}
			checked++
		}
		sort.Strings(keys)
		if want := specKeys[seed]; !equalStrings(keys, want) {
			fatal(fmt.Errorf("phase 4: seed %d produced keys %v, fleet had %v", seed, keys, want))
		}
	}
	if err := oracle.stop(); err != nil {
		fatal(fmt.Errorf("phase 4 graceful stop: %w", err))
	}

	fmt.Printf("fleet-smoke PASS: %d jobs across 3 nodes, %.0f forwards, %.0f phase-2 simulations for %d keys, 1 node killed, %d pair results byte-identical to single-node oracle\n",
		len(load)+nB+2, forwards, sims, keys, checked)
}

// waitResult pairs a terminal status with the base URL it came from,
// so result bytes are fetched from a node that actually answers.
type waitResult struct {
	base   string
	status jobStatus
}

// waitOrResubmit polls a job on its submission node; if the node (or
// the owner it proxies to) is dead, the spec is resubmitted to the
// first survivor — the client-side retry story for a fleet without
// job-state replication. Content addressing makes the retry safe:
// recomputed pairs land on the same keys with the same bytes.
func waitOrResubmit(fleet []*proc, node int, id string, spec jobSpec) (waitResult, error) {
	base := fleet[node].base
	if node != 2 { // submission node survives; owner may not
		st, err := waitTerminalTolerant(base, id)
		if err == nil && st.State == "done" {
			return waitResult{base, st}, nil
		}
	}
	base = fleet[0].base
	id2, err := submit(base, spec)
	if err != nil {
		return waitResult{}, fmt.Errorf("resubmit: %w", err)
	}
	st, err := waitTerminal(base, id2)
	if err != nil {
		return waitResult{}, err
	}
	if st.State != "done" {
		return waitResult{}, fmt.Errorf("resubmitted job %s: state %q, error %q", id2, st.State, st.Error)
	}
	return waitResult{base, st}, nil
}

// recordResults files every successful pair of st into the shared
// byte and key-set maps, requiring cross-job byte agreement on
// shared keys.
func recordResults(base string, st jobStatus, seed uint64, results map[string][]byte, specKeys map[uint64][]string) error {
	var keys []string
	for _, r := range st.Results {
		if r.Failed || r.Key == "" {
			continue
		}
		data, err := fetchResult(base, r.Key)
		if err != nil {
			return fmt.Errorf("result %s: %w", r.Key, err)
		}
		if prev, ok := results[r.Key]; ok && !bytes.Equal(prev, data) {
			return fmt.Errorf("key %s changed bytes between jobs", r.Key)
		}
		results[r.Key] = data
		keys = append(keys, r.Key)
	}
	sort.Strings(keys)
	if prev, ok := specKeys[seed]; ok {
		if !equalStrings(prev, keys) {
			return fmt.Errorf("seed %d produced keys %v, previously %v", seed, keys, prev)
		}
	} else {
		specKeys[seed] = keys
	}
	return nil
}

// fleetSums sums each named counter over every node; all nodes must
// answer.
func fleetSums(fleet []*proc, names ...string) (map[string]float64, error) {
	sums := make(map[string]float64, len(names))
	for _, p := range fleet {
		for _, name := range names {
			v, err := metricValue(p.base, name)
			if err != nil {
				return nil, fmt.Errorf("reading %s from %s: %w", name, p.base, err)
			}
			sums[name] += v
		}
	}
	return sums, nil
}

// freeAddrs reserves n distinct loopback ports by binding and
// releasing them. The tiny release-to-reuse race is acceptable in a
// smoke harness; peers must know each other's ports before any node
// starts, so ephemeral :0 binding cannot work here.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// ---- server process management (mirrors cmd/ampchaos) -------------------

type proc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	werr   error
}

// startServer launches ampserve on the given fixed address with
// small, fast simulation parameters and waits until it answers
// /healthz. The simulation parameters must match across every node
// and the oracle: content addresses hash them.
func startServer(dir, name, addr string, extra ...string) (*proc, error) {
	args := append([]string{
		"-addr", addr,
		"-journaldir", filepath.Join(dir, name+"-journal"),
		"-cachedir", filepath.Join(dir, name+"-cache"),
		"-flushevery", "100ms",
		"-limit", "40000", "-contextswitch", "10000",
		"-profilelimit", "30000", "-fidelity", "interval",
	}, extra...)
	cmd := exec.Command(*ampserve, args...)
	if *verbose {
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	} else {
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	procs = append(procs, p)
	go func() {
		p.werr = cmd.Wait()
		close(p.exited)
	}()
	for {
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("%s: server never became healthy", name)
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("%s: server exited before becoming healthy: %v", name, p.werr)
		default:
		}
		if resp, err := http.Get(p.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill is the chaos primitive: SIGKILL, no drain, no flush. Idempotent
// so it doubles as cleanup.
func (p *proc) kill() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// stop drains gracefully via SIGTERM and requires a clean exit.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.exited:
	case <-time.After(time.Until(deadline)):
		p.kill()
		return fmt.Errorf("server did not drain before the harness deadline")
	}
	if p.werr != nil {
		return fmt.Errorf("unclean exit: %w", p.werr)
	}
	return nil
}

// ---- HTTP client helpers ------------------------------------------------

type jobSpec struct {
	Pairs int    `json:"pairs"`
	Seed  uint64 `json:"seed,omitempty"`
}

type pairResult struct {
	Key    string `json:"key"`
	Failed bool   `json:"failed,omitempty"`
}

type jobStatus struct {
	ID      string       `json:"id"`
	State   string       `json:"state"`
	Error   string       `json:"error,omitempty"`
	Results []pairResult `json:"results,omitempty"`
}

func terminalState(s string) bool { return s == "done" || s == "failed" || s == "canceled" }

// submit POSTs one job, retrying overload pushback (429/503) with the
// server's Retry-After hint, and returns the acknowledged id.
func submit(base string, spec jobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	for {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			if time.Now().After(deadline) {
				return "", fmt.Errorf("submit timed out on backpressure")
			}
			time.Sleep(retryAfter(resp))
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			resp.Body.Close()
			return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		return st.ID, nil
	}
}

func retryAfter(resp *http.Response) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 && secs <= 5 {
		return time.Duration(secs) * time.Second
	}
	return 50 * time.Millisecond
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(base, id string) (jobStatus, error) {
	for {
		st, err := pollOnce(base, id)
		if err != nil {
			return jobStatus{}, err
		}
		if terminalState(st.State) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s at harness deadline", id, st.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// waitTerminalTolerant polls like waitTerminal but treats transport
// and proxy errors as a verdict ("this job is stranded on a dead
// node") after a few consecutive failures, instead of fatal.
func waitTerminalTolerant(base, id string) (jobStatus, error) {
	errs := 0
	for {
		st, err := pollOnce(base, id)
		if err != nil {
			errs++
			if errs >= 5 {
				return jobStatus{}, fmt.Errorf("job %s unreachable: %w", id, err)
			}
			time.Sleep(100 * time.Millisecond)
			continue
		}
		errs = 0
		if terminalState(st.State) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s at harness deadline", id, st.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func pollOnce(base, id string) (jobStatus, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return jobStatus{}, fmt.Errorf("status: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return jobStatus{}, err
	}
	return st, nil
}

// fetchResult reads one content-addressed pair record's raw bytes.
func fetchResult(base, key string) ([]byte, error) {
	resp, err := http.Get(base + "/v1/results/" + key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: HTTP %d", key, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// metricValue reads one counter/gauge from /metrics.
func metricValue(base, name string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, err
	}
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m.Value, nil
		}
	}
	return 0, nil // absent = never incremented
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ampfleet: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ampfleet: FAIL:", err)
	for _, p := range procs {
		p.kill()
	}
	os.Exit(1)
}
