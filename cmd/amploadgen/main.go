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
// Overload protection is backpressure, not failure: a 429 (queue full)
// or 503 (draining) is retried after the server's retry hint, by the
// rule of internal/serveclient, the client this command drives the
// service through. -report-shed appends a summary of how often the
// server pushed back and how long the loop honored its hints — the
// observable half of the depth bound's contract.
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
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ampsched/internal/serveclient"
	"ampsched/internal/server"
)

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
		reportShed  = flag.Bool("report-shed", false, "report queue-full/draining rejections and honored backoff")
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
	clients := make([]*serveclient.Client, len(nodes))
	for i, n := range nodes {
		clients[i] = serveclient.New("http://" + n)
	}
	var (
		submitted atomic.Int64
		completed atomic.Int64
		failed    atomic.Int64
		pairsDone atomic.Int64
		cacheHits atomic.Int64

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
	next := func() (uint64, *serveclient.Client, bool) {
		n := submitted.Add(1)
		if *jobs > 0 && n > int64(*jobs) {
			return 0, nil, false
		}
		if *jobs <= 0 && !time.Now().Before(deadline) {
			return 0, nil, false
		}
		jobSeed := *seed + uint64((n-1)%int64(*distinct))
		// Stride the hot jobs through the sequence (7919 is coprime to
		// 100, so the residues cycle uniformly) instead of front-loading
		// them: a skewed run should interleave hot and cold submissions.
		if ((n-1)*7919)%100 < int64(*skew*100) {
			jobSeed = *seed
		}
		return jobSeed, clients[(n-1)%int64(len(clients))], true
	}

	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				jobSeed, c, ok := next()
				if !ok {
					return
				}
				t0 := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), *timeout)
				st, err := c.Run(ctx, server.JobSpec{Pairs: *pairs, Seed: jobSeed, Fidelity: *fidelity})
				cancel()
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

	var shed serveclient.Pushback
	for _, c := range clients {
		p := c.Pushback()
		shed.Shed += p.Shed
		shed.Refused += p.Refused
		shed.Waited += p.Waited
	}
	done := completed.Load()
	fmt.Printf("jobs:       %d completed, %d failed, %d rejections retried\n",
		done, failed.Load(), shed.Shed+shed.Refused)
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
		fmt.Printf("shed:       %d queue full (429), %d draining (503), %v backoff honored\n",
			shed.Shed, shed.Refused, shed.Waited.Round(time.Millisecond))
	}
	if len(nodes) > 1 {
		fleetReport(nodes, clients)
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
func fleetReport(nodes []string, clients []*serveclient.Client) {
	fmt.Printf("fleet:      %-21s %8s %8s %8s %8s\n",
		"node", "jobs", "simmed", "fwd", "rebuilds")
	var remoteHits, remoteMisses float64
	for i, c := range clients {
		m, err := c.Metrics(context.Background())
		if err != nil {
			fmt.Printf("fleet:      %-21s unreachable: %v\n", nodes[i], err)
			continue
		}
		fmt.Printf("fleet:      %-21s %8.0f %8.0f %8.0f %8.0f\n",
			nodes[i], m["server.jobs_completed"].Value, m["server.batched_pairs"].Value,
			m["cluster.forwards"].Value, m["cluster.ring_rebuilds"].Value)
		remoteHits += m["cluster.remote_hits"].Value
		remoteMisses += m["cluster.remote_misses"].Value
	}
	fmt.Printf("fleet:      cross-node cache-hit rate %.0f%% (%.0f/%.0f remote lookups)\n",
		100*ratio(int64(remoteHits), int64(remoteHits+remoteMisses)),
		remoteHits, remoteHits+remoteMisses)
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
