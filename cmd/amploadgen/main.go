// Command amploadgen is a closed-loop load generator for ampserve: it
// keeps -concurrency sweep jobs in flight against a running daemon,
// cycling over a small pool of distinct specs so repeat submissions
// exercise the content-addressed cache, and reports job latency
// percentiles, throughput, and the cache-hit ratio.
//
// Usage:
//
//	amploadgen -addr 127.0.0.1:8080 [-jobs 16] [-concurrency 4] ...
//
// It doubles as the service's end-to-end smoke test (`make
// serve-smoke`): the exit status is non-zero when no job completes.
//
// Overload protection is backpressure, not failure: a 429 (load shed)
// or 503 (circuit breaker open) is retried after the server's
// Retry-After hint. -report-shed appends a summary of how often the
// server pushed back and how long the loop honored its hints — the
// observable half of the admission-control contract.
//
// Fleet mode: -fleet takes a comma-separated node list and sprays
// submissions round-robin across it, so every node sees every spec
// and the cluster layer's forwarding/singleflight does the
// deduplication. -skew pins a fraction of jobs to the hottest spec to
// provoke imbalance. The report gains a per-node balance table — jobs
// completed, pairs simulated, forwards, ring rebuilds — plus the
// fleet-wide cross-node cache-hit rate, all scraped from each node's
// /metrics endpoint.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type jobSpec struct {
	Pairs    int    `json:"pairs"`
	Seed     uint64 `json:"seed,omitempty"`
	Fidelity string `json:"fidelity,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error,omitempty"`
}

// shedStats counts the server's overload pushback.
type shedStats struct {
	shed     atomic.Int64 // HTTP 429: cost-based load shedding
	breaker  atomic.Int64 // HTTP 503: circuit breaker open
	waitNano atomic.Int64 // total backoff honored before resubmitting
}

func (s *shedStats) rejections() int64 { return s.shed.Load() + s.breaker.Load() }

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "ampserve address (host:port)")
		fleetFlag   = flag.String("fleet", "", "fleet mode: comma-separated node list to spray round-robin (overrides -addr)")
		skew        = flag.Float64("skew", 0, "fleet mode: fraction of jobs pinned to the first seed (hot key, 0..1)")
		jobs        = flag.Int("jobs", 16, "total jobs to run (0 = until -duration elapses)")
		duration    = flag.Duration("duration", 0, "run for this long instead of a fixed job count")
		concurrency = flag.Int("concurrency", 4, "closed-loop workers (jobs in flight)")
		pairs       = flag.Int("pairs", 2, "pairs per job")
		distinct    = flag.Int("distinct", 4, "distinct specs to cycle through (smaller = more cache hits)")
		seed        = flag.Uint64("seed", 1000, "first spec seed; spec i uses seed+i%distinct")
		fidelity    = flag.String("fidelity", "", "per-job fidelity override (inherit server default when empty)")
		timeout     = flag.Duration("timeout", 2*time.Minute, "per-job completion timeout")
		reportShed  = flag.Bool("report-shed", false, "report load-shed/breaker rejections and honored backoff")
		verbose     = flag.Bool("v", false, "log each job outcome to stderr")
	)
	flag.Parse()
	if *jobs <= 0 && *duration <= 0 {
		fatal(fmt.Errorf("need -jobs > 0 or -duration > 0"))
	}
	if *concurrency <= 0 || *pairs <= 0 || *distinct <= 0 {
		fatal(fmt.Errorf("-concurrency, -pairs and -distinct must be positive"))
	}
	if *skew < 0 || *skew > 1 {
		fatal(fmt.Errorf("-skew must be in [0, 1]"))
	}

	nodes := fleetNodes(*fleetFlag, *addr)
	bases := make([]string, len(nodes))
	for i, n := range nodes {
		bases[i] = "http://" + n
	}
	var (
		submitted atomic.Int64
		completed atomic.Int64
		failed    atomic.Int64
		pairsDone atomic.Int64
		cacheHits atomic.Int64
		shed      shedStats

		latMu     sync.Mutex
		latencies []time.Duration
	)
	deadline := time.Now().Add(*duration)
	start := time.Now()

	// next picks the i-th job's spec seed and target node. Seeds cycle
	// over the distinct pool; -skew pins that fraction of jobs to the
	// first (hottest) seed instead. Targets rotate round-robin through
	// the fleet, so in fleet mode every node receives every hot key
	// and cross-node routing has to deduplicate the work.
	next := func() (uint64, string, bool) {
		n := submitted.Add(1)
		if *jobs > 0 && n > int64(*jobs) {
			return 0, "", false
		}
		if *jobs <= 0 && !time.Now().Before(deadline) {
			return 0, "", false
		}
		jobSeed := *seed + uint64((n-1)%int64(*distinct))
		// Stride the hot jobs through the sequence (7919 is coprime to
		// 100, so the residues cycle uniformly) instead of front-loading
		// them: a skewed run should interleave hot and cold submissions.
		if ((n-1)*7919)%100 < int64(*skew*100) {
			jobSeed = *seed
		}
		return jobSeed, bases[(n-1)%int64(len(bases))], true
	}

	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				jobSeed, base, ok := next()
				if !ok {
					return
				}
				t0 := time.Now()
				st, err := runJob(base, jobSpec{
					Pairs: *pairs, Seed: jobSeed, Fidelity: *fidelity,
				}, *timeout, &shed)
				if err != nil {
					failed.Add(1)
					fmt.Fprintln(os.Stderr, "amploadgen:", err)
					continue
				}
				lat := time.Since(t0)
				if st.State == "done" {
					completed.Add(1)
					pairsDone.Add(int64(st.Completed))
					cacheHits.Add(int64(st.CacheHits))
					latMu.Lock()
					latencies = append(latencies, lat)
					latMu.Unlock()
				} else {
					failed.Add(1)
				}
				if *verbose {
					fmt.Fprintf(os.Stderr, "amploadgen: job %s %s in %v (%d pairs, %d cached)\n",
						st.ID, st.State, lat.Round(time.Millisecond), st.Completed, st.CacheHits)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	done := completed.Load()
	fmt.Printf("jobs:       %d completed, %d failed, %d rejections retried\n",
		done, failed.Load(), shed.rejections())
	fmt.Printf("pairs:      %d served, %d from cache (%.0f%% hit ratio)\n",
		pairsDone.Load(), cacheHits.Load(), 100*ratio(cacheHits.Load(), pairsDone.Load()))
	fmt.Printf("throughput: %.2f jobs/s over %v at concurrency %d\n",
		float64(done)/elapsed.Seconds(), elapsed.Round(time.Millisecond), *concurrency)
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		fmt.Printf("latency:    p50 %v  p90 %v  p99 %v\n",
			pct(latencies, 50), pct(latencies, 90), pct(latencies, 99))
	}
	if *reportShed {
		fmt.Printf("shed:       %d load-shed (429), %d breaker-refused (503), %v backoff honored\n",
			shed.shed.Load(), shed.breaker.Load(),
			time.Duration(shed.waitNano.Load()).Round(time.Millisecond))
	}
	if len(nodes) > 1 {
		fleetReport(nodes, bases)
	}
	if done == 0 {
		fatal(fmt.Errorf("no job completed"))
	}
}

// fleetNodes resolves the target node list: the -fleet spray list
// when given, else the single -addr.
func fleetNodes(fleet, addr string) []string {
	if fleet == "" {
		return []string{addr}
	}
	var out []string
	for _, n := range strings.Split(fleet, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("-fleet has no usable addresses"))
	}
	return out
}

// fleetReport scrapes each node's /metrics and prints the per-node
// balance table: how work landed (jobs completed, pairs handed to the
// simulator = server.batched_pairs), how it moved (forwards, ring
// rebuilds), and the fleet-wide cross-node cache-hit rate — remote
// lookups that found the pair already computed elsewhere.
func fleetReport(nodes, bases []string) {
	fmt.Printf("fleet:      %-21s %8s %8s %8s %8s\n",
		"node", "jobs", "simmed", "fwd", "rebuilds")
	var remoteHits, remoteMisses float64
	for i, base := range bases {
		m, err := scrapeMetrics(base)
		if err != nil {
			fmt.Printf("fleet:      %-21s unreachable: %v\n", nodes[i], err)
			continue
		}
		fmt.Printf("fleet:      %-21s %8.0f %8.0f %8.0f %8.0f\n",
			nodes[i], m["server.jobs_completed"], m["server.batched_pairs"],
			m["cluster.forwards"], m["cluster.ring_rebuilds"])
		remoteHits += m["cluster.remote_hits"]
		remoteMisses += m["cluster.remote_misses"]
	}
	fmt.Printf("fleet:      cross-node cache-hit rate %.0f%% (%.0f/%.0f remote lookups)\n",
		100*ratio(int64(remoteHits), int64(remoteHits+remoteMisses)),
		remoteHits, remoteHits+remoteMisses)
}

// scrapeMetrics reads one node's /metrics snapshot into name → value.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	var snap struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(snap.Metrics))
	for _, m := range snap.Metrics {
		out[m.Name] = m.Value
	}
	return out, nil
}

// retryAfter extracts the server's backoff hint, clamped to keep a
// misconfigured server from stalling the loop; fallback is the old
// fixed 50ms poll.
func retryAfter(resp *http.Response, fallback, max time.Duration) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return fallback
	}
	d := time.Duration(secs) * time.Second
	if d > max {
		return max
	}
	return d
}

// runJob submits one job and polls it to a terminal state. A 429
// (shed) or 503 (breaker) is backpressure, not failure: the closed
// loop honors Retry-After and resubmits.
func runJob(base string, spec jobSpec, timeout time.Duration, shed *shedStats) (jobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobStatus{}, err
	}
	deadline := time.Now().Add(timeout)
	var st jobStatus
	for {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return jobStatus{}, fmt.Errorf("submitting job: %w", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable {
			wait := retryAfter(resp, 50*time.Millisecond, 5*time.Second)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				shed.shed.Add(1)
			} else {
				shed.breaker.Add(1)
			}
			if !time.Now().Before(deadline) {
				return jobStatus{}, fmt.Errorf("submit timed out on backpressure")
			}
			shed.waitNano.Add(int64(wait))
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			resp.Body.Close()
			return jobStatus{}, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return jobStatus{}, fmt.Errorf("decoding submit response: %w", err)
		}
		break
	}

	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return jobStatus{}, fmt.Errorf("polling job %s: %w", st.ID, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return jobStatus{}, fmt.Errorf("decoding job %s status: %w", st.ID, err)
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st, nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return jobStatus{}, fmt.Errorf("job %s did not finish within %v", st.ID, timeout)
}

// pct returns the p-th percentile of sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx].Round(time.Millisecond)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amploadgen:", err)
	os.Exit(1)
}
