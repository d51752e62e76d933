// Command ampexperiments regenerates the paper's tables and figures.
//
// Usage:
//
//	ampexperiments [-run fig7,fig9] [-pairs 80] [-limit 1500000] [-v]
//
// With no -run flag every experiment runs in paper order. The -paper
// flag switches to the publication-scale parameters (hours of CPU).
//
// Observability: -telemetry streams run/window/swap/fault events as
// JSONL (plus a final metrics summary line), -telemetrycsv writes a
// CSV metrics summary, -http serves /metrics and /debug/pprof while
// the experiments run, and -pprof writes CPU and heap profiles. A
// first interrupt (Ctrl-C) cancels the in-flight sweep cleanly —
// partial pairs are flagged, sinks are flushed — and a second one
// kills the process.
//
// Crash safety: -cachedir keeps a content-addressed pair store, one
// atomically written file per sweep pair. A killed or interrupted run
// re-invoked on the same directory simulates only the pairs it lacks;
// fig7full resumes the same way.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"ampsched/internal/experiments"
	"ampsched/internal/pairstore"
	"ampsched/internal/telemetry"
)

func main() {
	var (
		runList      = flag.String("run", "all", "comma-separated experiment names, or 'all' (see -list)")
		list         = flag.Bool("list", false, "list available experiments and exit")
		pairs        = flag.Int("pairs", 0, "override number of random workload pairs")
		limit        = flag.Uint64("limit", 0, "override per-run instruction limit")
		ctxSwitch    = flag.Uint64("contextswitch", 0, "override coarse decision interval (cycles)")
		overhead     = flag.Uint64("overhead", 0, "override swap overhead (cycles)")
		seed         = flag.Uint64("seed", 0, "override RNG seed")
		paper        = flag.Bool("paper", false, "use publication-scale parameters (slow)")
		fidelity     = flag.String("fidelity", "", "simulation engine for pair runs: detailed (default) | interval | sampled")
		faultRate    = flag.Float64("faultrate", 0, "inject monitor/swap faults at this uniform rate into every pair run (0 = off)")
		faultSeed    = flag.Uint64("faultseed", 1, "fault-plan seed (deterministic with -seed and -faultrate)")
		budget       = flag.Uint64("cyclebudget", 0, "per-run cycle budget; an exhausted run is reported wedged (0 = off)")
		nxmCores     = flag.String("nxmcores", "", "comma-separated core counts for the nxm sweep (default 4,16,64,256)")
		nxmPerCore   = flag.Int("nxmthreads", 0, "nxm threads per core (default 8)")
		nxmCycles    = flag.Uint64("nxmcycles", 0, "nxm per-run cycle horizon (default 200000)")
		nxmQuantum   = flag.Uint64("nxmquantum", 0, "nxm scheduler decision quantum in cycles (default 10000)")
		verbose      = flag.Bool("v", false, "print progress lines to stderr")
		cacheDir     = flag.String("cachedir", "", "store every sweep pair's outcome in this directory and resume interrupted sweeps from it")
		telemetryOut = flag.String("telemetry", "", "write a JSONL event stream plus a final metrics summary to this file")
		telemetryCSV = flag.String("telemetrycsv", "", "write a CSV metrics summary to this file")
		httpAddr     = flag.String("http", "", "serve /metrics and /debug/pprof on this address while experiments run")
		pprofPrefix  = flag.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof profiles")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.Name, e.Desc)
		}
		return
	}

	opt := experiments.DefaultOptions()
	if *paper {
		opt = experiments.PaperScaleOptions()
	}
	if *pairs > 0 {
		opt.Pairs = *pairs
	}
	if *limit > 0 {
		opt.InstrLimit = *limit
	}
	if *ctxSwitch > 0 {
		opt.ContextSwitch = *ctxSwitch
	}
	if *overhead > 0 {
		opt.SwapOverhead = *overhead
	}
	if *seed > 0 {
		opt.Seed = *seed
	}
	opt.FaultRate = *faultRate
	opt.FaultSeed = *faultSeed
	opt.CycleBudget = *budget
	opt.Fidelity = *fidelity
	if *nxmCores != "" {
		opt.NXMCores = nil
		for _, s := range strings.Split(*nxmCores, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("-nxmcores: %w", err))
			}
			opt.NXMCores = append(opt.NXMCores, n)
		}
	}
	if *nxmPerCore > 0 {
		opt.NXMThreadsPerCore = *nxmPerCore
	}
	if *nxmCycles > 0 {
		opt.NXMCycles = *nxmCycles
	}
	if *nxmQuantum > 0 {
		opt.NXMQuantum = *nxmQuantum
	}

	r, err := experiments.NewRunner(opt)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  ..", s) }
	}
	if *cacheDir != "" {
		store, err := pairstore.NewCache(pairstore.CacheConfig{Dir: *cacheDir, Validate: json.Valid})
		if err != nil {
			fatal(err)
		}
		if err := store.Load(); err != nil {
			fatal(err)
		}
		r.Store = store
	}

	var sinks []telemetry.Sink
	for _, out := range []struct {
		path string
		mk   func(f *os.File) telemetry.Sink
	}{
		{*telemetryOut, func(f *os.File) telemetry.Sink { return telemetry.NewJSONLSink(f) }},
		{*telemetryCSV, func(f *os.File) telemetry.Sink { return telemetry.NewCSVSummarySink(f) }},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			fatal(err)
		}
		sinks = append(sinks, out.mk(f))
	}
	var tel *telemetry.Telemetry
	if len(sinks) > 0 || *httpAddr != "" {
		tel = telemetry.New(sinks...)
		r.Telemetry = tel
		defer func() {
			if err := tel.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ampexperiments: telemetry:", err)
			}
		}()
	}
	if *httpAddr != "" {
		_, addr, err := telemetry.Serve(*httpAddr, tel.Registry())
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ampexperiments: metrics and pprof at http://%s/\n", addr)
	}
	if *pprofPrefix != "" {
		prof, err := telemetry.StartProfiler(*pprofPrefix)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := prof.Stop(); err != nil {
				fmt.Fprintln(os.Stderr, "ampexperiments: pprof:", err)
			}
		}()
	}

	// The first interrupt cancels the runner's context so in-flight
	// pairs stop at the next check point; signal.NotifyContext restores
	// default handling afterwards, so a second interrupt kills us.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	r.BaseContext = ctx

	var selected []experiments.Experiment
	if *runList == "all" {
		for _, e := range experiments.All() {
			if e.Name == "fig7full" {
				continue // paper-scale; run explicitly with -run fig7full
			}
			selected = append(selected, e)
		}
	} else {
		for _, name := range strings.Split(*runList, ",") {
			e, err := experiments.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("# ampsched experiment harness (pairs=%d limit=%d ctxswitch=%d overhead=%d seed=%d)\n\n",
		opt.Pairs, opt.InstrLimit, opt.ContextSwitch, opt.SwapOverhead, opt.Seed)
	start := time.Now()
	for _, e := range selected {
		t0 := time.Now()
		if err := e.Run(r, os.Stdout); err != nil {
			if errors.Is(err, context.Canceled) || ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "ampexperiments: interrupted during %s\n", e.Name)
				return // deferred sink/profile flushes still run
			}
			fmt.Fprintf(os.Stderr, "ampexperiments: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "  [%s done in %v]\n", e.Name, time.Since(t0).Round(time.Millisecond))
		}
	}
	fmt.Printf("# total elapsed: %v\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ampexperiments:", err)
	os.Exit(1)
}
