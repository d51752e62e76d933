// Package server turns the simulator into a long-running
// simulation-as-a-service daemon (cmd/ampserve): an HTTP/JSON API over
// a priority job queue run by a fixed worker pool (queue.go), a
// content-addressed result cache with singleflight deduplication and
// optional disk persistence, and NDJSON streaming of per-pair outcomes
// as they complete.
//
// Endpoints:
//
//	POST   /v1/jobs           submit a pair sweep or explicit pair list
//	GET    /v1/jobs/{id}      job status (+results when done)
//	GET    /v1/jobs/{id}/stream  NDJSON per-pair outcomes, live
//	DELETE /v1/jobs/{id}      cancel
//	GET    /v1/results/{key}  one cached pair record by content address
//	GET    /healthz           liveness
//	GET    /readyz            readiness (503 while draining)
//	GET    /metrics           telemetry registry snapshot
//
// Expensive shared state — the §V profiling pass and the Fig. 3/4
// estimators — is computed once per distinct option set and shared
// across every job (experiments.Runner's lazy accessors are
// concurrency-safe), so a warm server answers repeat sweeps from the
// cache and serves new ones without re-profiling.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ampsched/internal/amp"
	"ampsched/internal/cpu"
	"ampsched/internal/experiments"
	"ampsched/internal/fault"
	"ampsched/internal/interval"
	"ampsched/internal/metrics"
	"ampsched/internal/pairstore"
	"ampsched/internal/telemetry"
	"ampsched/internal/wal"
)

// Config assembles a Server.
type Config struct {
	// BaseOptions are the experiment defaults a JobSpec inherits from
	// and overrides; zero value means experiments.DefaultOptions.
	BaseOptions experiments.Options
	// MaxPairsPerJob rejects oversized sweeps (0 = 400).
	MaxPairsPerJob int
	// Workers sizes the worker pool (0 = GOMAXPROCS).
	Workers int
	// Cache sizes the result cache (Telemetry is wired by New).
	Cache pairstore.CacheConfig
	// JournalDir, when non-empty, enables the durable job journal:
	// submissions are fsynced to a WAL before they are acknowledged and
	// Recover replays it after a crash. Empty disables journaling.
	JournalDir string
	// MaxPending refuses a submitted group that would push the pending
	// backlog past this many jobs (ErrQueueFull); 0 means 4x the
	// workers.
	MaxPending int
	// Chaos, when non-nil, injects service-level faults (disk errors,
	// torn writes, slow I/O, worker stalls, panics) into the journal,
	// cache and job execution — the chaos harness's hook.
	Chaos *fault.ServicePlan
	// FlushEvery, when positive, runs a background durability flusher
	// that persists dirty cache entries and fsyncs the journal on that
	// cadence (completion already flushes; this bounds the exposure of
	// pairs computed by a job that never finishes).
	FlushEvery time.Duration
	// Telemetry receives server, queue and simulation metrics; nil
	// disables them (the /metrics endpoint then serves an empty
	// registry).
	Telemetry *telemetry.Telemetry
	// JobIDSpace namespaces minted job ids (fleet mode): when set, ids
	// become "<8 hex of sha256(space)>-<n>" instead of bare "<n>", so
	// nodes minting ids concurrently never collide and a status poll
	// for a forwarded job can never be confused with a local one.
	JobIDSpace string
}

// Server is the simulation service. Create with New, expose Handler,
// and stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	tel     *telemetry.Telemetry
	cache   *pairstore.Cache
	journal *wal.Log
	chaos   *fault.ServicePlan

	baseOpt    experiments.Options
	coreDigest string

	mu      sync.Mutex
	jobs    map[string]*jobEntry
	runners map[string]*experiments.Runner

	// The job queue (queue.go). qmu guards the pending heap, the
	// running count and each job's queue position; qcond wakes idle
	// workers. Every job's context derives from root, which abortJobs
	// ends.
	qmu       sync.Mutex
	qcond     *sync.Cond
	pending   jobHeap
	running   int
	nextSeq   uint64
	workers   sync.WaitGroup
	root      context.Context
	abortJobs context.CancelFunc

	// remote / publish are the fleet hooks (SetCluster, fleet.go):
	// consulted on pair cache misses and fed locally computed records.
	// Guarded by mu — journal recovery can start jobs before the
	// cluster layer is wired.
	remote  RemoteLookup
	publish ResultPublish

	idPrefix string // from Config.JobIDSpace; "" in single-node mode
	nextID   atomic.Uint64
	// draining refuses new groups and lets idle workers exit; it is
	// set under qmu and read without it.
	draining atomic.Bool

	flushStop chan struct{}
	flushDone chan struct{}
	stopOnce  sync.Once

	jobsSubmitted     *telemetry.Counter
	jobsCompleted     *telemetry.Counter
	jobsFailed        *telemetry.Counter
	jobsCanceled      *telemetry.Counter
	jobsRejected      *telemetry.Counter
	jobsRecovered     *telemetry.Counter
	checkpointResumes *telemetry.Counter
	profileShares     *telemetry.Counter
	journalErrors     *telemetry.Counter
	pairsServed       *telemetry.Counter
	// pairsSimulated counts pairs run locally. Its name,
	// "server.batched_pairs", predates the one-pair-at-a-time compute
	// path; load generators and the fleet smoke read it.
	pairsSimulated *telemetry.Counter
	jobLatencyUS   *telemetry.Histogram
	httpRequests   *telemetry.Counter
	// The queue's metrics keep their "jobqueue." names.
	depth    *telemetry.Gauge
	runningG *telemetry.Gauge
	batches  *telemetry.Counter
	panics   *telemetry.Counter
	waitUS   *telemetry.Histogram
	runUS    *telemetry.Histogram
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	baseOpt := cfg.BaseOptions
	if baseOpt.InstrLimit == 0 {
		// Zero-valued options: the caller wants the defaults. (Options
		// holds a slice now, so it is no longer comparable and any
		// valid configuration has a positive instruction limit.)
		baseOpt = experiments.DefaultOptions()
	}
	if baseOpt.Pairs <= 0 {
		baseOpt.Pairs = 1
	}
	if err := baseOpt.Validate(); err != nil {
		return nil, fmt.Errorf("server: base options: %w", err)
	}
	if cfg.MaxPairsPerJob == 0 {
		cfg.MaxPairsPerJob = 400
	}

	if cfg.Workers < 0 || cfg.MaxPending < 0 {
		return nil, fmt.Errorf("server: negative Workers or MaxPending")
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = 4 * cfg.Workers
	}

	ccfg := cfg.Cache
	ccfg.Telemetry = cfg.Telemetry
	if cfg.Chaos != nil && ccfg.WriteFile == nil {
		ccfg.WriteFile = cfg.Chaos.WriteFile
	}
	if ccfg.Validate == nil {
		// Every entry the server persists is a JSON PairResult; a
		// truncated or garbled file fails this and is quarantined on
		// load instead of poisoning lookups.
		ccfg.Validate = json.Valid
	}
	cache, err := pairstore.NewCache(ccfg)
	if err != nil {
		return nil, err
	}

	var journal *wal.Log
	if cfg.JournalDir != "" {
		wopts := wal.Options{}
		if cfg.Chaos != nil {
			wopts.WriteHook = cfg.Chaos.WALWriteHook()
		}
		journal, err = wal.Open(cfg.JournalDir, wopts)
		if err != nil {
			return nil, fmt.Errorf("server: opening job journal: %w", err)
		}
	}

	tel := cfg.Telemetry
	s := &Server{
		cfg:        cfg,
		tel:        tel,
		cache:      cache,
		journal:    journal,
		chaos:      cfg.Chaos,
		baseOpt:    baseOpt,
		jobs:       make(map[string]*jobEntry),
		runners:    make(map[string]*experiments.Runner),
		coreDigest: pairstore.CoreDigest(cpu.IntCoreConfig(), cpu.FPCoreConfig()),
		idPrefix:   jobIDPrefix(cfg.JobIDSpace),

		jobsSubmitted:     tel.Counter("server.jobs_submitted"),
		jobsCompleted:     tel.Counter("server.jobs_completed"),
		jobsFailed:        tel.Counter("server.jobs_failed"),
		jobsCanceled:      tel.Counter("server.jobs_canceled"),
		jobsRejected:      tel.Counter("server.jobs_rejected"),
		jobsRecovered:     tel.Counter("server.jobs_recovered"),
		checkpointResumes: tel.Counter("server.checkpoint_resumes"),
		profileShares:     tel.Counter("server.profile_shares"),
		journalErrors:     tel.Counter("server.journal_errors"),
		pairsServed:       tel.Counter("server.pairs_served"),
		pairsSimulated:    tel.Counter("server.batched_pairs"),
		jobLatencyUS:      tel.Histogram("server.job_latency_us"),
		httpRequests:      tel.Counter("server.http_requests"),
		depth:             tel.Gauge("jobqueue.depth"),
		runningG:          tel.Gauge("jobqueue.running"),
		batches:           tel.Counter("jobqueue.batches"),
		panics:            tel.Counter("jobqueue.panics"),
		waitUS:            tel.Histogram("jobqueue.wait_us"),
		runUS:             tel.Histogram("jobqueue.run_us"),
	}
	s.qcond = sync.NewCond(&s.qmu)
	//ampvet:allow ctxcheck jobs outlive the submitter's ctx; DELETE, timeout_ms, Close and a timed-out Drain end them
	s.root, s.abortJobs = context.WithCancel(context.Background())
	// The interval engine's process-global calibration ledger reports
	// through the same registry ("interval.calibrations",
	// "interval.cal_cache_hits"): its cross-run reuse saves every cold
	// pair the calibration, so the server surfaces it.
	interval.SetTelemetry(tel)
	if cfg.Chaos != nil {
		cfg.Chaos.SetTelemetry(tel)
	}
	if cfg.FlushEvery > 0 {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop(cfg.FlushEvery)
	}
	for w := 0; w < cfg.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// flushLoop is the background durability flusher: on each tick it
// persists dirty cache entries and fsyncs the journal, bounding how
// much completed-but-unflushed work one crash can lose.
func (s *Server) flushLoop(every time.Duration) {
	defer close(s.flushDone)
	t := time.NewTicker(every) //ampvet:allow determinism durability flush cadence is inherently wall-clock
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
			if err := s.cache.Save(); err != nil {
				s.journalErrors.Inc()
			}
			if s.journal != nil {
				if err := s.journal.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
					s.journalErrors.Inc()
				}
			}
		}
	}
}

// stopFlusher stops the background flusher (idempotent).
func (s *Server) stopFlusher() {
	s.stopOnce.Do(func() {
		if s.flushStop != nil {
			close(s.flushStop)
			<-s.flushDone
		}
	})
}

// Cache exposes the result cache (tests, warm-up, persistence).
func (s *Server) Cache() *pairstore.Cache { return s.cache }

// optionsFor resolves a spec against the base options.
func (s *Server) optionsFor(sp JobSpec) (experiments.Options, error) {
	opt := s.baseOpt
	if sp.Seed != 0 {
		opt.Seed = sp.Seed
	}
	if sp.InstrLimit != 0 {
		opt.InstrLimit = sp.InstrLimit
	}
	if sp.ContextSwitch != 0 {
		opt.ContextSwitch = sp.ContextSwitch
	}
	if sp.SwapOverhead != 0 {
		opt.SwapOverhead = sp.SwapOverhead
	}
	if sp.Fidelity != "" {
		opt.Fidelity = sp.Fidelity
	}
	if sp.FaultRate != nil {
		opt.FaultRate = *sp.FaultRate
	}
	if sp.FaultSeed != 0 {
		opt.FaultSeed = sp.FaultSeed
	}
	if sp.NXM != nil {
		if len(sp.NXM.Cores) > 0 {
			opt.NXMCores = sp.NXM.Cores
		}
		if sp.NXM.ThreadsPerCore > 0 {
			opt.NXMThreadsPerCore = sp.NXM.ThreadsPerCore
		}
		if sp.NXM.Cycles > 0 {
			opt.NXMCycles = sp.NXM.Cycles
		}
		if sp.NXM.Quantum > 0 {
			opt.NXMQuantum = sp.NXM.Quantum
		}
	}
	// Pair execution never uses Options.Pairs/Parallelism; normalize
	// them so runners dedupe on what actually matters.
	opt.Pairs = 1
	opt.Parallelism = 1
	if err := opt.Validate(); err != nil {
		return opt, err
	}
	return opt, nil
}

// runnerFor returns the shared Runner for opt, creating it on first
// use. Runners hold the profiled matrices/surfaces, so all jobs with
// the same options share one profiling pass. A new option set whose
// profiling inputs match an existing runner's — a single-knob delta in
// swap overhead, fault rate/seed, instruction limit, cycle budget or
// fidelity — derives from it instead of re-profiling: the §V profile
// is the expensive upstream stage (shares count on
// "server.profile_shares"); only the dependent pair runs are
// recomputed. The derivation is lazy, so the submit path never blocks
// on a profiling pass.
func (s *Server) runnerFor(opt experiments.Options) (*experiments.Runner, error) {
	b, err := json.Marshal(opt)
	if err != nil {
		return nil, fmt.Errorf("server: hashing options: %w", err)
	}
	key := string(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runners[key]; ok {
		return r, nil
	}
	// Any base whose profiling inputs match yields byte-identical
	// artifacts (profiling is a pure function of them), so which match
	// map order surfaces first cannot reach results.
	for _, base := range s.runners { //ampvet:allow determinism all SharesProfile matches carry byte-identical profiling artifacts
		if base.SharesProfile(opt) {
			r := base.Derived(opt)
			s.profileShares.Inc()
			s.runners[key] = r
			return r, nil
		}
	}
	r, err := experiments.NewRunner(opt)
	if err != nil {
		return nil, err
	}
	r.Telemetry = s.tel
	s.runners[key] = r
	return r, nil
}

// ErrQueueFull marks a group refused because the pending backlog would
// pass Config.MaxPending. The HTTP layer answers it with 429 and
// Retry-After: 1.
var ErrQueueFull = errors.New("server: queue full")

// Submit validates and enqueues jobs as one group: every spec is
// accepted or none is, and a single job is a group of one. Maps to
// POST /v1/jobs (an object or an array); also the programmatic entry
// point for tests. When journaling is on, each accepted job is fsynced
// to the journal before Submit returns — an acknowledged job survives a
// crash.
func (s *Server) Submit(specs ...JobSpec) ([]*jobEntry, error) {
	return s.submit(specs, nil)
}

// submit is Submit for both callers. Journal recovery passes the
// journaled ids to re-enqueue under; such a recovered group skips the
// depth bound — it was admitted before the crash.
func (s *Server) submit(specs []JobSpec, ids []string) ([]*jobEntry, error) {
	recovered := ids != nil
	if len(specs) == 0 {
		return nil, fmt.Errorf("server: empty job group")
	}
	if s.draining.Load() {
		s.jobsRejected.Add(uint64(len(specs)))
		return nil, ErrDraining
	}
	plans := make([]*jobPlan, len(specs))
	for k, sp := range specs {
		p, err := s.plan(sp)
		if err != nil {
			if len(specs) > 1 {
				err = fmt.Errorf("server: job spec %d: %w", k, err)
			}
			return nil, err
		}
		plans[k] = p
	}

	entries := make([]*jobEntry, len(specs))
	for k, p := range plans {
		j := newJobEntry(specs[k])
		j.recovered = recovered
		j.plan = p
		entries[k] = j
	}
	if err := s.enqueue(entries, ids); err != nil {
		s.jobsRejected.Add(uint64(len(specs)))
		return nil, err
	}
	// Acknowledgment is per job: a journal failure refuses (and
	// cancels) only the job whose record could not be written — the
	// enqueue was atomic, durability is individual.
	var firstErr error
	for _, j := range entries {
		if err := s.ackJob(j); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return entries, firstErr
}

// jobPlan is a job resolved at submit time: its options and its units
// in result order. The runner that computes it is looked up when the
// job runs, so a refused submission leaves no runner behind.
type jobPlan struct {
	opt   experiments.Options
	units []unit
}

// unit is one cached result of a job — a pair's three-scheduler
// comparison or one nxm rung: its label, the content address it is
// cached under, and the computation that produces its record bytes on
// a miss. Its index in the job is its position in jobPlan.units.
type unit struct {
	label   string
	key     string
	compute func(ctx context.Context, runner *experiments.Runner) ([]byte, error)
}

// plan resolves a spec against the base options into its units.
func (s *Server) plan(sp JobSpec) (*jobPlan, error) {
	opt, err := s.optionsFor(sp)
	if err != nil {
		return nil, err
	}
	var pairs []experiments.Pair
	var nxm experiments.NXMParams
	var n int
	if sp.NXM != nil {
		nxm = experiments.ResolveNXM(opt)
		n = len(nxm.Cores)
	} else {
		if pairs, err = sp.resolvePairs(opt); err != nil {
			return nil, err
		}
		n = len(pairs)
	}
	if n > s.cfg.MaxPairsPerJob {
		return nil, fmt.Errorf("server: %d pairs exceeds per-job limit %d", n, s.cfg.MaxPairsPerJob)
	}
	p := &jobPlan{opt: opt, units: make([]unit, n)}
	for i, cores := range nxm.Cores {
		p.units[i] = s.nxmUnit(opt, nxm, i, cores)
	}
	for i, pair := range pairs {
		p.units[i] = s.pairUnit(opt, i, pair)
	}
	return p, nil
}

// pairUnit is pair i's comparison record. A miss asks the fleet first
// — a peer may already hold the record, and byte identity across nodes
// makes the source indistinguishable — then runs the pair's three
// runs under ctx, the context of the job leading the cache flight, and
// publishes the record.
func (s *Server) pairUnit(opt experiments.Options, i int, p experiments.Pair) unit {
	key := pairstore.CacheKey(experiments.PairKeySpec(s.coreDigest, opt, i, p))
	return unit{label: p.Label(), key: key, compute: func(ctx context.Context, runner *experiments.Runner) ([]byte, error) {
		remote, publish := s.clusterHooks()
		if remote != nil {
			if data, ok := remote(ctx, key); ok {
				return data, nil
			}
		}
		proposed, hpe, rr, err := runner.RunComparison(ctx, i, p)
		s.pairsSimulated.Inc()
		if cerr := ctx.Err(); err != nil && cerr != nil {
			return nil, cerr // the job's own reason, bare: a deadline, say
		}
		if err != nil {
			return nil, err
		}
		data, err := marshalPairResult(i, p, key, proposed, hpe, rr)
		if err == nil && publish != nil {
			publish(key, data)
		}
		return data, err
	}}
}

// nxmUnit is the n-core rung of an nxm job: every N×M policy compared
// on one machine.
func (s *Server) nxmUnit(opt experiments.Options, nxm experiments.NXMParams, i, n int) unit {
	key := pairstore.CacheKey(nxmKeySpec(s.coreDigest, opt, n))
	label := fmt.Sprintf("nxm:%dx%d", n, n*nxm.ThreadsPerCore)
	return unit{label: label, key: key, compute: func(ctx context.Context, runner *experiments.Runner) ([]byte, error) {
		res, err := experiments.RunNXMUnitContext(ctx, runner, n)
		if err != nil {
			return nil, err
		}
		return json.Marshal(PairResult{Index: i, Pair: label, Key: key, NXM: &res})
	}}
}

// ackJob finishes a successful enqueue: journals the submission (a job
// is only acknowledged once it is durable) and registers the entry. On
// a journal failure the queued job is canceled and the submission
// refused.
func (s *Server) ackJob(j *jobEntry) error {
	// Acknowledged implies journaled: the submit record is durable
	// before the caller (and so the HTTP 202) sees the job. A journal
	// that cannot be written refuses the job rather than accepting
	// work it might forget.
	if err := s.appendJournal(recSubmit, submitRecord{ID: j.id, Spec: j.spec}); err != nil {
		s.cancelJob(j, abortMsg)
		s.jobsRejected.Inc()
		s.journalErrors.Inc()
		return err
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.jobsSubmitted.Inc()
	return nil
}

// job looks up a submitted job by id.
func (s *Server) job(id string) (*jobEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes one job's units in order, serving each from the
// cache when possible and appending outcomes as they complete, and
// returns the error the job settles by. A panic in it is recovered
// into that error (counted on "jobqueue.panics"), so it fails its job
// alone and the worker goes on.
func (s *Server) runJob(ctx context.Context, j *jobEntry, p *jobPlan) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			if rerr, ok := r.(error); ok {
				err = fmt.Errorf("server: job panic: %w", rerr)
			} else {
				err = fmt.Errorf("server: job panic: %v", r)
			}
		}
	}()
	if s.chaos != nil {
		s.chaos.MaybeStall()
		s.chaos.MaybePanic()
	}
	// Best-effort start record (no fsync urgency: a lost start only
	// means recovery re-runs from the submit record, which it would
	// anyway).
	if err := s.appendJournal(recStart, idRecord{ID: j.id}); err != nil {
		s.journalErrors.Inc()
	}
	// Force the shared profiling pass and estimator build before the
	// unit loop so every unit's timing excludes it (the HPE rank and
	// two-phase nxm policies consume the matrix too); concurrent jobs
	// collapse onto one computation (Runner is concurrency-safe).
	runner, err := s.runnerFor(p.opt)
	if err == nil {
		_, err = runner.Matrix()
	}
	if err != nil {
		return err
	}

	// Units are served one at a time, in order: append order is the
	// streaming API's contract.
	var firstWedge error
	for i := range p.units {
		u := &p.units[i]
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		data, cached, err := s.cache.Do(ctx, u.key, func() ([]byte, error) { return u.compute(ctx, runner) })
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			// Degraded unit: record and continue, like Sweep.
			if firstWedge == nil && errors.Is(err, amp.ErrWedged) {
				firstWedge = err
			}
			j.appendResult(PairResult{
				Index: i, Pair: u.label, Key: u.key,
				Failed: true, Err: err.Error(),
			})
			s.pairsServed.Inc()
			continue
		}
		var r PairResult
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("server: corrupt cache entry %s: %w", u.key, err)
		}
		// A rung's key leaves out its position, so jobs listing the same
		// core count share the record; the position is job-local.
		r.Index = i
		r.Cached = cached
		j.appendResult(r)
		s.pairsServed.Inc()
	}

	// Mirror Sweep's contract: a job only fails when no unit finished.
	st := j.status(false)
	if st.Completed > 0 && st.Failed == st.Completed && firstWedge != nil {
		return fmt.Errorf("server: all %d units degraded: %w", st.Completed, firstWedge)
	}
	if j.recovered && st.CacheHits > 0 {
		// A re-enqueued job that found pre-crash units in the cache is a
		// checkpointed resume: only the missing tail was re-simulated.
		s.checkpointResumes.Inc()
	}
	return nil
}

// marshalPairResult builds the canonical comparison record from one
// pair's three runs.
func marshalPairResult(i int, p experiments.Pair, key string, proposed, hpe, rr amp.Result) ([]byte, error) {
	vsHPE, err := metrics.Compare(proposed, hpe)
	if err != nil {
		return nil, err
	}
	vsRR, err := metrics.Compare(proposed, rr)
	if err != nil {
		return nil, err
	}
	r := PairResult{
		Index:            i,
		Pair:             p.Label(),
		Key:              key,
		Proposed:         schedResult(proposed),
		HPE:              schedResult(hpe),
		RR:               schedResult(rr),
		WeightedVsHPEPct: vsHPE.WeightedPct,
		WeightedVsRRPct:  vsRR.WeightedPct,
		GeoVsHPEPct:      vsHPE.GeoPct,
		GeoVsRRPct:       vsRR.GeoPct,
	}
	return json.Marshal(r)
}

// nxmKeySpec builds the KeySpec for the n-core rung of an nxm job.
// The pair-only fields stay zero; PairIndex doubles as the core count
// and Topology pins the full machine shape. Knobs the nxm sweep does
// not read (InstrLimit, ContextSwitch, fault plan) are excluded so
// jobs differing only in them share rungs.
func nxmKeySpec(coreDigest string, opt experiments.Options, n int) pairstore.KeySpec {
	p := experiments.ResolveNXM(opt)
	return pairstore.KeySpec{
		Version:      pairstore.SchemaVersion,
		CoreDigest:   coreDigest,
		BenchA:       "nxm",
		PairIndex:    n,
		Seed:         opt.Seed,
		SwapOverhead: opt.SwapOverhead,
		ProfileLimit: opt.ProfileInstrLimit,
		CycleBudget:  opt.CycleBudget,
		Fidelity:     p.Fidelity,
		Topology:     fmt.Sprintf("%dx%d/q%d/h%d", n, n*p.ThreadsPerCore, p.Quantum, p.Cycles),
	}
}

// schedResult compresses an amp.Result for the wire.
func schedResult(res amp.Result) SchedResult {
	return SchedResult{
		Cycles: res.Cycles,
		Swaps:  res.Swaps,
		IPCPerWatt: [2]float64{
			res.Threads[0].IPCPerWatt, res.Threads[1].IPCPerWatt,
		},
		Committed: [2]uint64{
			res.Threads[0].Committed, res.Threads[1].Committed,
		},
	}
}

// flushCacheRetry persists dirty cache entries, retrying so injected
// disk faults converge (each retry only rewrites what is still
// dirty). Persistent failure is counted, not fatal: the entry stays
// dirty for the next flush.
func (s *Server) flushCacheRetry() {
	var err error
	for attempt := 0; attempt < journalAppendRetries; attempt++ {
		if err = s.cache.Save(); err == nil {
			return
		}
	}
	if err != nil {
		s.journalErrors.Inc()
	}
}

// Handler returns the service mux, including the telemetry /metrics
// endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("GET /metrics", telemetry.Handler(s.tel.Registry()))
	return countRequests(s.httpRequests, mux)
}

// countRequests wraps the mux with the request counter.
func countRequests(c *telemetry.Counter, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		next.ServeHTTP(w, r)
	})
}

// apiError writes a JSON error body with the given status.
func apiError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// handleSubmit implements POST /v1/jobs: one JobSpec object, or a
// JSON array of specs submitted as one group (all accepted or all
// refused; the group enqueues adjacently). An object is answered with
// a status object, an array with an array.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		apiError(w, http.StatusBadRequest, fmt.Errorf("reading job spec: %w", err))
		return
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	array := len(trimmed) > 0 && trimmed[0] == '['
	var specs []JobSpec
	if array {
		err = json.Unmarshal(body, &specs)
	} else {
		specs = make([]JobSpec, 1)
		err = json.Unmarshal(body, &specs[0])
	}
	if err != nil {
		apiError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	entries, err := s.Submit(specs...)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		apiError(w, http.StatusServiceUnavailable, err)
		return
	default:
		apiError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusAccepted)
	if array {
		statuses := make([]JobStatus, len(entries))
		for i, j := range entries {
			statuses[i] = j.status(false)
		}
		_ = json.NewEncoder(w).Encode(statuses)
		return
	}
	_ = json.NewEncoder(w).Encode(entries[0].status(false))
}

// handleStatus implements GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(j.status(true))
}

// handleCancel implements DELETE /v1/jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	s.cancelJob(j, "canceled by client")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(j.status(false))
}

// handleResult implements GET /v1/results/{key}.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok := s.cache.Peek(key)
	if !ok {
		apiError(w, http.StatusNotFound, fmt.Errorf("no cached result %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(data)
}

// handleStream implements GET /v1/jobs/{id}/stream: NDJSON, one
// PairResult per line as each completes, then a terminal status line
// {"done":true,...}. The stream follows a live job and replays a
// finished one.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	for {
		j.mu.Lock()
		for sent >= len(j.results) && !j.state.terminal() {
			ch := j.notify
			j.mu.Unlock()
			select {
			case <-ch:
			case <-r.Context().Done():
				return
			}
			j.mu.Lock()
		}
		batch := append([]PairResult(nil), j.results[sent:]...)
		state := j.state
		errMsg := j.errMsg
		j.mu.Unlock()

		for _, pr := range batch {
			if err := enc.Encode(pr); err != nil {
				return
			}
			sent++
		}
		if flusher != nil {
			flusher.Flush()
		}
		if state.terminal() {
			final := struct {
				Done  bool   `json:"done"`
				State string `json:"state"`
				Error string `json:"error,omitempty"`
			}{Done: true, State: state.String(), Error: errMsg}
			_ = enc.Encode(final)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
	}
}
