// Command ampchaos is the crash-safety harness for ampserve: it
// proves that a kill -9 mid-load loses no acknowledged job and
// corrupts no result, by actually doing it.
//
// Three phases, one verdict:
//
//  1. Chaos: start ampserve with -faultservice (injected disk errors,
//     torn writes, stalls, panics) plus a journal and cache dir. Drive
//     a batch of jobs to completion, record their per-pair result
//     bytes, submit a second batch, and SIGKILL the daemon while that
//     batch is in flight.
//  2. Recovery: restart ampserve on the same dirs with no fault
//     injection. Every acknowledged job must still be addressable and
//     reach a terminal state; jobs the journal never saw finish are
//     re-enqueued (server.jobs_recovered); every pre-kill result byte
//     must read back identical.
//  3. Oracle: run the same specs on a pristine server with fresh dirs
//     and assert the recovered results are byte-identical to an
//     execution that never saw a fault or a crash.
//
// Servers are started and driven through internal/serveclient; every
// server the harness started is killed on the way out, failure
// included.
//
// Usage (see `make chaos-smoke`):
//
//	ampchaos -ampserve bin/ampserve [-rate 0.05] [-jobs 10] [-v]
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
	"time"

	"ampsched/internal/serveclient"
	"ampsched/internal/server"
)

var (
	ampserve = flag.String("ampserve", "bin/ampserve", "path to the ampserve binary under test")
	workdir  = flag.String("workdir", "", "scratch directory (default: a fresh temp dir)")
	rate     = flag.Float64("rate", 0.05, "phase-1 service fault rate")
	jobsN    = flag.Int("jobs", 10, "total jobs across both phase-1 batches")
	pairs    = flag.Int("pairs", 2, "pairs per batch-A job (batch B uses 2x to stay in flight)")
	timeout  = flag.Duration("timeout", 4*time.Minute, "overall harness deadline")
	verbose  = flag.Bool("v", false, "pass server stderr through and log each check")
)

func main() {
	flag.Parse()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	err := run(ctx)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ampchaos: FAIL:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	if *jobsN < 4 {
		return fmt.Errorf("-jobs must be >= 4 (need both a completed and an in-flight batch)")
	}
	dir := *workdir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "ampchaos-*"); err != nil {
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
	// start launches a server with small, fast simulation parameters.
	start := func(name, journalDir, cacheDir string, extra ...string) (*serveclient.Proc, error) {
		return l.Start(ctx, name, "", append([]string{
			"-journaldir", journalDir, "-cachedir", cacheDir,
			"-flushevery", "100ms",
			"-limit", "40000", "-contextswitch", "10000",
			"-profilelimit", "30000", "-fidelity", "interval",
			"-workers", "4",
		}, extra...)...)
	}
	journalDir := filepath.Join(dir, "journal")
	cacheDir := filepath.Join(dir, "cache")

	// ---- Phase 1: chaos ------------------------------------------------
	logf("phase 1: chaos server (fault rate %g)", *rate)
	p1, err := start("p1", journalDir, cacheDir,
		"-faultservice", fmt.Sprint(*rate), "-faultseed", "7")
	if err != nil {
		return err
	}

	nA := *jobsN / 2
	type acked struct {
		id   string
		seed uint64
		n    int // pairs
	}
	var ackedJobs []acked

	for i := 0; i < nA; i++ {
		spec := server.JobSpec{Pairs: *pairs, Seed: 100 + uint64(i)}
		st, err := p1.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("phase 1 submit A%d: %w", i, err)
		}
		ackedJobs = append(ackedJobs, acked{st.ID, spec.Seed, spec.Pairs})
	}
	// Batch A runs to completion under fault injection; its result
	// bytes are the crash-survival corpus.
	preKill := map[string][]byte{} // pair key -> raw cached record
	for _, a := range ackedJobs {
		st, err := p1.Wait(ctx, a.id)
		if err != nil {
			return fmt.Errorf("phase 1 job %s: %w", a.id, err)
		}
		logf("phase 1: job %s (seed %d) %s, %d pairs", a.id, a.seed, st.State, len(st.Results))
		for _, r := range st.Results {
			if r.Failed || r.Key == "" {
				continue
			}
			if preKill[r.Key], err = p1.Result(ctx, r.Key); err != nil {
				return fmt.Errorf("phase 1: %w", err)
			}
		}
	}
	if len(preKill) == 0 {
		return fmt.Errorf("phase 1 completed no pairs; nothing to assert over")
	}

	// Batch B is acknowledged but (very likely) unfinished when the
	// SIGKILL lands — the jobs recovery must not lose. Double pairs
	// keep them in flight.
	for i := nA; i < *jobsN; i++ {
		spec := server.JobSpec{Pairs: 2 * *pairs, Seed: 200 + uint64(i)}
		st, err := p1.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("phase 1 submit B%d: %w", i, err)
		}
		ackedJobs = append(ackedJobs, acked{st.ID, spec.Seed, spec.Pairs})
	}
	logf("phase 1: SIGKILL with %d jobs acknowledged", len(ackedJobs))
	p1.Kill()

	// ---- Phase 2: recovery ---------------------------------------------
	logf("phase 2: recovery server on the same journal and cache")
	p2, err := start("p2", journalDir, cacheDir)
	if err != nil {
		return err
	}
	m, err := p2.Metrics(ctx)
	if err != nil {
		return err
	}
	recovered := m["server.jobs_recovered"].Value
	logf("phase 2: server.jobs_recovered = %.0f", recovered)

	postKill := map[string][]byte{}
	seedKeys := map[uint64][]string{} // seed -> sorted pair keys of done jobs
	requeuedDone := 0
	for _, a := range ackedJobs {
		st, err := p2.Wait(ctx, a.id)
		if err != nil {
			return fmt.Errorf("phase 2: acknowledged job %s lost: %w", a.id, err)
		}
		if st.State == "done" && len(st.Results) > 0 {
			requeuedDone++
			var keys []string
			for _, r := range st.Results {
				if r.Failed || r.Key == "" {
					continue
				}
				if postKill[r.Key], err = p2.Result(ctx, r.Key); err != nil {
					return fmt.Errorf("phase 2: %w", err)
				}
				keys = append(keys, r.Key)
			}
			slices.Sort(keys)
			seedKeys[a.seed] = keys
		}
		logf("phase 2: job %s %s (recovered=%v)", a.id, st.State, st.Recovered)
	}
	if recovered < 1 && requeuedDone <= nA {
		// Only fail when nothing from batch B was actually re-run —
		// i.e. recovery truly did nothing despite in-flight work.
		return fmt.Errorf("phase 2: no job was recovered from the journal")
	}

	// Every pre-kill byte must survive the crash unchanged.
	for key, want := range preKill {
		data, err := p2.Result(ctx, key)
		if err != nil {
			return fmt.Errorf("phase 2: pre-kill result unreadable after crash: %w", err)
		}
		if !bytes.Equal(data, want) {
			return fmt.Errorf("phase 2: result %s changed across the crash", key)
		}
	}
	logf("phase 2: all %d pre-kill results byte-identical", len(preKill))
	if err := p2.Stop(ctx); err != nil {
		return fmt.Errorf("phase 2 graceful stop: %w", err)
	}

	// ---- Phase 3: oracle -----------------------------------------------
	logf("phase 3: pristine server, fresh dirs, same specs")
	p3, err := start("p3", filepath.Join(dir, "journal3"), filepath.Join(dir, "cache3"))
	if err != nil {
		return err
	}

	checked := 0
	for _, a := range ackedJobs {
		if _, ok := seedKeys[a.seed]; !ok {
			continue // job ended failed/canceled in phase 2; no oracle to compare
		}
		st, err := p3.Run(ctx, server.JobSpec{Pairs: a.n, Seed: a.seed})
		if err != nil || st.State != "done" {
			return fmt.Errorf("phase 3 job seed %d: state %q, err %v", a.seed, st.State, err)
		}
		var keys []string
		for _, r := range st.Results {
			if r.Key == "" {
				continue
			}
			data, err := p3.Result(ctx, r.Key)
			if err != nil {
				return fmt.Errorf("phase 3: %w", err)
			}
			if got, ok := postKill[r.Key]; ok {
				if !bytes.Equal(got, data) {
					return fmt.Errorf("phase 3: result %s differs between recovered and pristine runs", r.Key)
				}
				checked++
			}
			keys = append(keys, r.Key)
		}
		slices.Sort(keys)
		if want := seedKeys[a.seed]; !slices.Equal(keys, want) {
			return fmt.Errorf("phase 3: seed %d produced keys %v, recovered run had %v", a.seed, keys, want)
		}
	}
	if checked == 0 {
		return fmt.Errorf("phase 3 compared no results")
	}
	if err := p3.Stop(ctx); err != nil {
		return fmt.Errorf("phase 3 graceful stop: %w", err)
	}

	fmt.Printf("chaos-smoke PASS: %d jobs acknowledged, %.0f recovered, %d pre-kill results intact, %d pairs oracle-verified\n",
		len(ackedJobs), recovered, len(preKill), checked)
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ampchaos: "+format+"\n", args...)
}
