// Command ampserve runs the simulation-as-a-service daemon: an
// HTTP/JSON API (internal/server) over a bounded priority job queue
// and worker pool, with a content-addressed result cache and NDJSON
// streaming of per-pair outcomes.
//
// Usage:
//
//	ampserve [-addr 127.0.0.1:8080] [-workers N] [-cachedir DIR] ...
//
// The daemon serves until SIGINT/SIGTERM, then drains gracefully:
// in-flight jobs finish (up to -draintimeout), the cache is persisted,
// and the listener shuts down. A second signal aborts immediately.
//
// With -addr :0 the kernel picks a free port; -addrfile writes the
// bound address to a file once the listener is up, so scripts (and
// `make serve-smoke`) can wait for readiness without racing.
//
// Crash safety: -journaldir journals every job's lifecycle to a
// CRC-framed write-ahead log; on restart the journal is replayed and
// acknowledged-but-unfinished jobs are re-enqueued (their completed
// pairs return from the -cachedir result cache, so recovery repeats
// no work already persisted). -queuecap bounds the pending backlog: a
// submission that would pass it is refused with 429 and Retry-After: 1.
// -faultservice turns the daemon into its own chaos subject for `make
// chaos-smoke`.
//
// Fleet mode: -peers lists the static membership of an ampserve
// fleet. Submissions route to their canonical owner on a
// consistent-hash ring (so concurrent identical jobs collapse into
// one simulation fleet-wide), cached results are shared node-to-node,
// and a heartbeat marks unreachable peers dead and re-routes around
// them (internal/cluster).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ampsched/internal/cluster"
	"ampsched/internal/experiments"
	"ampsched/internal/fault"
	"ampsched/internal/pairstore"
	"ampsched/internal/server"
	"ampsched/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
		addrFile     = flag.String("addrfile", "", "write the bound address to this file once listening")
		workers      = flag.Int("workers", 0, "job queue worker pool size (0 = GOMAXPROCS)")
		queueCap     = flag.Int("queuecap", 0, "refuse submissions that would pass this many pending jobs (0 = 4x workers)")
		maxPairs     = flag.Int("maxpairs", 0, "per-job pair limit (0 = 400)")
		cacheBytes   = flag.Int64("cachebytes", 0, "result cache byte budget (0 = 64 MiB)")
		cacheDir     = flag.String("cachedir", "", "persist the result cache to this directory")
		journalDir   = flag.String("journaldir", "", "journal job lifecycle to this directory and replay it on startup")
		flushEvery   = flag.Duration("flushevery", 0, "background cache/journal flush cadence (0 = only on drain)")
		faultRate    = flag.Float64("faultservice", 0, "chaos: inject disk errors, torn writes, slow I/O and worker stalls at this uniform rate, and job panics (each fails its job) at rate/4")
		faultSeed    = flag.Uint64("faultseed", 1, "chaos: service fault-plan seed")
		fidelity     = flag.String("fidelity", "", "default simulation engine: detailed | interval | sampled")
		limit        = flag.Uint64("limit", 0, "default per-run instruction limit")
		profileLimit = flag.Uint64("profilelimit", 0, "default profiling-pass instruction limit")
		ctxSwitch    = flag.Uint64("contextswitch", 0, "default coarse decision interval (cycles)")
		overhead     = flag.Uint64("overhead", 0, "default swap overhead (cycles)")
		seed         = flag.Uint64("seed", 0, "default RNG seed")
		telemetryOut = flag.String("telemetry", "", "write a JSONL event stream plus a final metrics summary to this file")
		drainTimeout = flag.Duration("draintimeout", 30*time.Second, "graceful drain budget after SIGTERM")
		verbose      = flag.Bool("v", false, "log requests-in-progress details to stderr")

		peers     = flag.String("peers", "", "fleet mode: comma-separated peer addresses (host:port), including this node")
		advertise = flag.String("advertise", "", "fleet mode: this node's address as peers spell it (default: the bound address)")
		heartbeat = flag.Duration("heartbeat", 0, "fleet mode: peer liveness probe cadence (0 = 500ms)")
	)
	flag.Parse()

	opt := experiments.DefaultOptions()
	if *limit > 0 {
		opt.InstrLimit = *limit
	}
	if *profileLimit > 0 {
		opt.ProfileInstrLimit = *profileLimit
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
	if *fidelity != "" {
		opt.Fidelity = *fidelity
	}

	var sinks []telemetry.Sink
	if *telemetryOut != "" {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			fatal(err)
		}
		sinks = append(sinks, telemetry.NewJSONLSink(f))
	}
	tel := telemetry.New(sinks...)

	var chaos *fault.ServicePlan
	if *faultRate > 0 {
		plan, err := fault.NewService(fault.UniformService(*faultRate, *faultSeed))
		if err != nil {
			fatal(err)
		}
		chaos = plan
		fmt.Fprintf(os.Stderr, "ampserve: CHAOS MODE: injecting service faults at rate %g (seed %d)\n",
			*faultRate, *faultSeed)
	}

	// The listener binds before the server is built: in fleet mode the
	// bound address is this node's default identity, and the job-id
	// namespace derived from it must be fixed before journal recovery
	// mints or replays any id. Nothing is served until hs.Serve below,
	// so clients still never observe a half-recovered job table.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Write-then-rename so watchers never read a partial address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "ampserve: listening on http://%s/\n", bound)

	peerList := splitPeers(*peers)
	self := *advertise
	if self == "" {
		self = bound
	}
	idSpace := ""
	if len(peerList) > 0 {
		// Fleet mode: namespace job ids by node identity so ids minted
		// concurrently across the fleet never collide (status polls for
		// forwarded jobs route by id).
		idSpace = self
	}

	srv, err := server.New(server.Config{
		BaseOptions:    opt,
		MaxPairsPerJob: *maxPairs,
		Workers:        *workers,
		Cache:          pairstore.CacheConfig{ByteBudget: *cacheBytes, Dir: *cacheDir},
		JournalDir:     *journalDir,
		FlushEvery:     *flushEvery,
		MaxPending:     *queueCap,
		Chaos:          chaos,
		Telemetry:      tel,
		JobIDSpace:     idSpace,
	})
	if err != nil {
		fatal(err)
	}
	if *cacheDir != "" {
		if err := srv.Cache().Load(); err != nil {
			fatal(err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "ampserve: cache warm with %d entries (%d bytes)\n",
				srv.Cache().Len(), srv.Cache().Bytes())
		}
	}
	if *journalDir != "" {
		// Recovery runs after the cache load so re-run jobs hit it, and
		// before hs.Serve starts accepting so clients never observe a
		// half-recovered job table (the listener is bound but idle).
		rs, err := srv.Recover()
		if err != nil {
			fatal(err)
		}
		if rs.Jobs > 0 || rs.Replay.Degraded() {
			fmt.Fprintf(os.Stderr,
				"ampserve: journal replay: %d jobs (%d requeued, %d already terminal); %d records, %d dropped, %d segments quarantined\n",
				rs.Jobs, rs.Requeued, rs.Terminal,
				rs.Replay.Records, rs.Replay.RecordsDropped, rs.Replay.SegmentsQuarantined)
		}
	}

	// Fleet mode: wrap the server in a cluster node. The node's
	// handler layers consistent-hash routing, peer endpoints and
	// forwarding over the plain API; its heartbeat runs until the drain
	// path closes it.
	handler := srv.Handler()
	var node *cluster.Node
	if len(peerList) > 0 {
		node, err = cluster.New(srv, cluster.Config{
			Self:      self,
			Peers:     peerList,
			Heartbeat: *heartbeat,
			Telemetry: tel,
		})
		if err != nil {
			fatal(err)
		}
		nodeCtx, nodeCancel := context.WithCancel(context.Background())
		defer nodeCancel()
		if err := node.Start(nodeCtx); err != nil {
			fatal(err)
		}
		handler = node.Handler()
		fmt.Fprintf(os.Stderr, "ampserve: fleet mode: self %s, peers %v\n", self, peerList)
	}

	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "ampserve: %v: draining (budget %v; signal again to abort)\n", sig, *drainTimeout)
	case err := <-serveErr:
		fatal(err)
	}

	// A second signal cuts the drain short.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "ampserve: second signal: aborting drain")
		cancel()
	}()
	defer cancel()

	exit := 0
	if node != nil {
		// Stop the heartbeat and unhook remote lookup and replication
		// before the queue drains; peers' heartbeats re-route new work
		// away once the listener is gone.
		if err := node.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ampserve: cluster:", err)
			exit = 1
		}
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ampserve: drain:", err)
		exit = 1
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "ampserve: shutdown:", err)
		exit = 1
	}
	if err := tel.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "ampserve: telemetry:", err)
		exit = 1
	}
	os.Exit(exit)
}

// splitPeers parses the -peers list into the fleet membership (nil =
// single-node mode).
func splitPeers(flat string) []string {
	var peers []string
	for _, p := range strings.Split(flat, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ampserve:", err)
	os.Exit(1)
}
