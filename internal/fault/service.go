package fault

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"ampsched/internal/rng"
	"ampsched/internal/telemetry"
)

// This file extends the fault layer from simulated-hardware faults
// (Plan) to service-level faults (ServicePlan): the failure modes a
// long-running ampserve daemon meets — disk write errors and torn
// writes into the WAL and result cache, slow I/O, stalled workers, and
// outright panics inside a job. The chaos harness (`make chaos-smoke`,
// cmd/ampchaos) drives the service under a ServicePlan, kill -9s it
// mid-load, and asserts that recovery loses nothing.
//
// Like Plan, everything is seeded and deterministic per draw sequence;
// unlike Plan, a ServicePlan is shared by concurrent workers and HTTP
// handlers, so its stream is guarded by a mutex (the draw order then
// depends on goroutine interleaving — fine: service chaos perturbs
// timing by design, and the simulation results themselves stay
// bit-identical because simulation draws never come from this stream).

// ErrInjectedDisk marks an injected disk fault (write error or torn
// write). Matched with errors.Is by layers that must distinguish chaos
// from real disk failure in tests.
var ErrInjectedDisk = errors.New("fault: injected disk error")

// ErrInjectedPanic is the value an injected panic carries. The server's
// worker recovers it, like any panic, into its job's error, so the job
// fails and the worker goes on.
var ErrInjectedPanic = errors.New("fault: injected panic")

// ServiceConfig describes a service-level fault plan. All rates are
// probabilities in [0, 1]; a zero-valued config injects nothing.
type ServiceConfig struct {
	// Seed drives the plan's draw stream.
	Seed uint64

	// DiskErrRate is the probability that a journal or cache write
	// fails outright (nothing written, error returned).
	DiskErrRate float64
	// TornWriteRate is the probability that a journal or cache write is
	// torn: a strict prefix hits the disk and the write errors — the
	// kill -9 failure mode, surfaced while the process is still alive
	// so the retry/resync paths run under test.
	TornWriteRate float64
	// SlowIORate is the probability that a disk write stalls for
	// SlowIODelay before succeeding.
	SlowIORate float64
	// SlowIODelay is the injected I/O stall (0 = 2ms).
	SlowIODelay time.Duration
	// StallRate is the probability that a worker stalls for StallDelay
	// before starting a job.
	StallRate float64
	// StallDelay is the injected worker stall (0 = 20ms).
	StallDelay time.Duration
	// PanicRate is the probability that a job panics at start
	// (recovered by its worker; the job fails).
	PanicRate float64
}

// Validate reports the first out-of-range knob.
func (c ServiceConfig) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"DiskErrRate", c.DiskErrRate},
		{"TornWriteRate", c.TornWriteRate},
		{"SlowIORate", c.SlowIORate},
		{"StallRate", c.StallRate},
		{"PanicRate", c.PanicRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %g outside [0, 1]", r.name, r.v)
		}
	}
	if c.SlowIODelay < 0 || c.StallDelay < 0 {
		return fmt.Errorf("fault: negative delay")
	}
	return nil
}

// Enabled reports whether the config injects any fault at all.
func (c ServiceConfig) Enabled() bool {
	return c.DiskErrRate > 0 || c.TornWriteRate > 0 || c.SlowIORate > 0 ||
		c.StallRate > 0 || c.PanicRate > 0
}

// UniformService is the one-knob plan used by the chaos harness:
// disk errors, torn writes and slow I/O fire at the given rate, worker
// stalls at rate and panics at rate/4 (a panic fails its whole job, so
// it is kept rarer than the faults the service absorbs).
func UniformService(rate float64, seed uint64) ServiceConfig {
	return ServiceConfig{
		Seed:          seed,
		DiskErrRate:   rate,
		TornWriteRate: rate,
		SlowIORate:    rate,
		StallRate:     rate,
		PanicRate:     rate / 4,
	}
}

// ServiceStats counts the faults a plan actually injected.
type ServiceStats struct {
	DiskErrs   uint64
	TornWrites uint64
	SlowIOs    uint64
	Stalls     uint64
	Panics     uint64
}

// ServicePlan is an instantiated service fault plan. Safe for
// concurrent use; build one per daemon.
type ServicePlan struct {
	cfg ServiceConfig

	mu    sync.Mutex
	rng   *rng.Source
	stats ServiceStats

	diskErrs   *telemetry.Counter
	tornWrites *telemetry.Counter
	slowIOs    *telemetry.Counter
	stalls     *telemetry.Counter
	panics     *telemetry.Counter
}

// tagService derives the service stream independently of the
// simulation streams.
const tagService = 0x5352_5643 // "SRVC"

// NewService validates cfg and instantiates the plan.
func NewService(cfg ServiceConfig) (*ServicePlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SlowIODelay == 0 {
		cfg.SlowIODelay = 2 * time.Millisecond
	}
	if cfg.StallDelay == 0 {
		cfg.StallDelay = 20 * time.Millisecond
	}
	return &ServicePlan{
		cfg: cfg,
		rng: rng.New(streamSeed(cfg.Seed, tagService)),
	}, nil
}

// SetTelemetry publishes injections into t: counters
// "fault.{disk_errs,torn_writes,slow_ios,worker_stalls,injected_panics}".
// A nil t disables publication again.
func (p *ServicePlan) SetTelemetry(t *telemetry.Telemetry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t == nil {
		p.diskErrs, p.tornWrites, p.slowIOs, p.stalls, p.panics = nil, nil, nil, nil, nil
		return
	}
	p.diskErrs = t.Counter("fault.disk_errs")
	p.tornWrites = t.Counter("fault.torn_writes")
	p.slowIOs = t.Counter("fault.slow_ios")
	p.stalls = t.Counter("fault.worker_stalls")
	p.panics = t.Counter("fault.injected_panics")
}

// Config returns the plan's (defaults-resolved) configuration.
func (p *ServicePlan) Config() ServiceConfig { return p.cfg }

// Stats returns the faults injected so far.
func (p *ServicePlan) Stats() ServiceStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// diskFault draws one disk outcome for a write of n bytes. It returns
// the bytes to keep, an error to report, and a stall to sleep — draw
// order is fixed (error, torn, slow).
func (p *ServicePlan) diskFault(n int) (keep int, err error, stall time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.DiskErrRate > 0 && p.rng.Bool(p.cfg.DiskErrRate) {
		p.stats.DiskErrs++
		p.diskErrs.Inc()
		return 0, fmt.Errorf("%w: write refused", ErrInjectedDisk), 0
	}
	if p.cfg.TornWriteRate > 0 && p.rng.Bool(p.cfg.TornWriteRate) && n > 1 {
		p.stats.TornWrites++
		p.tornWrites.Inc()
		keep = 1 + p.rng.Intn(n-1) // a strict, non-empty prefix
		return keep, fmt.Errorf("%w: torn write (%d of %d bytes)", ErrInjectedDisk, keep, n), 0
	}
	if p.cfg.SlowIORate > 0 && p.rng.Bool(p.cfg.SlowIORate) {
		p.stats.SlowIOs++
		p.slowIOs.Inc()
		return n, nil, p.cfg.SlowIODelay
	}
	return n, nil, 0
}

// WALWriteHook adapts the plan to the wal.Options.WriteHook seam: it
// decides per append whether the frame is written whole, torn, refused
// or delayed.
func (p *ServicePlan) WALWriteHook() func(frame []byte) (int, error) {
	return func(frame []byte) (int, error) {
		keep, err, stall := p.diskFault(len(frame))
		if stall > 0 {
			time.Sleep(stall)
		}
		return keep, err
	}
}

// WriteFile is a drop-in for os.WriteFile with this plan's disk faults
// applied: a refused write touches nothing, a torn write persists a
// prefix (and errors — callers using tmp+rename then never promote the
// torn file), slow I/O sleeps before succeeding.
func (p *ServicePlan) WriteFile(name string, data []byte, perm os.FileMode) error {
	keep, ferr, stall := p.diskFault(len(data))
	if stall > 0 {
		time.Sleep(stall)
	}
	if keep == 0 && ferr != nil {
		return ferr
	}
	if err := os.WriteFile(name, data[:keep], perm); err != nil {
		return err
	}
	return ferr
}

// MaybeStall sleeps the configured worker stall with probability
// StallRate (bounded by ctx via a plain sleep slice: stalls are short).
func (p *ServicePlan) MaybeStall() {
	p.mu.Lock()
	fire := p.cfg.StallRate > 0 && p.rng.Bool(p.cfg.StallRate)
	if fire {
		p.stats.Stalls++
		p.stalls.Inc()
	}
	d := p.cfg.StallDelay
	p.mu.Unlock()
	if fire {
		time.Sleep(d)
	}
}

// MaybePanic panics with probability PanicRate, carrying
// ErrInjectedPanic so the recovery layer can classify it.
func (p *ServicePlan) MaybePanic() {
	p.mu.Lock()
	fire := p.cfg.PanicRate > 0 && p.rng.Bool(p.cfg.PanicRate)
	if fire {
		p.stats.Panics++
		p.panics.Inc()
	}
	p.mu.Unlock()
	if fire {
		panic(ErrInjectedPanic)
	}
}
